"""Reference code used only by the tests.

Brute-force counterparts of what the library does in its eigenbasis
kernel: exact propagators, validated density matrices, projectors and
ideal pulses embedded in a composite space.  One-at-a-time counterparts
of its vectorised set-up: a group Hamiltonian assembled from scalar
dipole tensors, and the greedy clustering visiting every pair.  Also the
inverses of two library serialisations: a bath read back from its JSON
and a number density converted back to ppm.
"""

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from spinbath.bathgen import Bath, BathSpin, Partition, _pair_couplings
from spinbath.constants import (
    DIAMOND_ATOM_DENSITY_NM3,
    DIAMOND_BOND_NM,
    dipole_prefactor_hz,
)
from spinbath.hamiltonians import _field_vector, _group_operators
from spinbath.spinops import CompositeSpace, embed, two_level_unitary


def bath_from_json(text: str) -> Bath:
    """Inverse of Bath.to_json."""
    payload = json.loads(text)
    spins = tuple(
        BathSpin(position=tuple(entry["position"]), gamma=entry["gamma"],
                 species=entry.get("species", "13C"))
        for entry in payload["spins"]
    )
    return Bath(spins=spins, seed=payload["seed"],
                abundance=payload["abundance"],
                min_radius=payload.get("min_radius", DIAMOND_BOND_NM),
                lattice=payload.get("lattice", True))


def density_nm3_to_ppm(n_nm3: float) -> float:
    """Inverse of constants.ppm_to_density_nm3."""
    return n_nm3 / DIAMOND_ATOM_DENSITY_NM3 * 1e6


def projector(ops, m: float) -> np.ndarray:
    """Projector onto the eigenstate of ops.sz with projection m."""
    idx = int(round(ops.s - m))
    if not (0 <= idx < ops.dim):
        raise ValueError(f"projection {m} outside spin-{ops.s} ladder")
    p = np.zeros((ops.dim, ops.dim), dtype=complex)
    p[idx, idx] = 1.0
    return p


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(rho - rho.conj().T).max() > 1e-12 * max(1.0, np.abs(rho).max()):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        rho.flags.writeable = False
        object.__setattr__(self, "matrix", rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def evolve(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(-i 2 pi H t) for H in Hz and t in seconds.

    Computed through the Hermitian eigendecomposition, which is exact to
    rounding at these dimensions.
    """
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    if np.abs(h - h.conj().T).max() > 1e-10 * max(1.0, np.abs(h).max()):
        raise ValueError("Hamiltonian must be Hermitian")
    w, v = np.linalg.eigh(h)
    phases = np.exp(-2j * np.pi * w * t)
    return (v * phases) @ v.conj().T


def rotation(axis, angle: float, slot: int, space: CompositeSpace,
             subspace: tuple[int, int] | None = None) -> np.ndarray:
    """Ideal instantaneous pulse on a two-level subspace of one slot.

    For a two-dimensional slot the subspace defaults to the whole slot;
    larger slots must name the two basis levels being driven.  The result
    acts as the identity everywhere outside the named pair.
    """
    dim = space.dims[slot] if 0 <= slot < len(space.dims) else None
    if dim is None:
        raise ValueError(f"slot {slot} outside space with {len(space.dims)} slots")
    if subspace is None:
        if dim != 2:
            raise ValueError("a two-level subspace must be named for slots "
                             "with more than two levels")
        subspace = (0, 1)
    i, j = subspace
    if i == j:
        raise ValueError("subspace levels must be distinct")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"subspace levels {subspace} outside slot of dim {dim}")
    u2 = two_level_unitary(axis, angle)
    u = np.eye(dim, dtype=complex)
    u[i, i] = u2[0, 0]
    u[i, j] = u2[0, 1]
    u[j, i] = u2[1, 0]
    u[j, j] = u2[1, 1]
    return embed(u, slot, space)


def scalar_dipole_tensor(r_nm, gamma1: float, gamma2: float) -> np.ndarray:
    """Point-dipole tensor of one pair by the scalar formula (Hz)."""
    r = np.asarray(r_nm, dtype=float)
    dist = float(np.linalg.norm(r))
    rhat = r / dist
    c = dipole_prefactor_hz(gamma1, gamma2, dist)
    return c * (np.eye(3) - 3.0 * np.outer(rhat, rhat))


def group_hamiltonian(central, group, b, *, include_nn=True,
                      secular_hyperfine=False, hyperfine_scale=1.0):
    """One group's Hamiltonian, one tensor and one term at a time.

    The stacked builder must reproduce it bit for bit: the same terms,
    added in the same order, with zero coefficients skipped.
    """
    h = np.kron(central.hamiltonian(b), np.eye(1 << len(group), dtype=complex))
    if not group:
        return h
    b_vec = _field_vector(b)
    coeffs = []
    for spin in group:
        tensor = np.zeros((3, 3))
        if hyperfine_scale != 0.0:
            tensor = hyperfine_scale * scalar_dipole_tensor(
                spin.position, central.gamma_e_hz, spin.gamma)
        if secular_hyperfine:
            tensor[:2] = 0.0
        coeffs += [-spin.gamma * b_vec, tensor.ravel()]
    if include_nn:
        for s1, s2 in itertools.combinations(group, 2):
            r = np.asarray(s2.position) - np.asarray(s1.position)
            coeffs.append(scalar_dipole_tensor(r, s1.gamma, s2.gamma).ravel())
    for c, op in zip(np.concatenate(coeffs),
                     _group_operators(central, len(group))):
        if c != 0.0:
            h += c * op
    return h


@functools.lru_cache(maxsize=2)
def _pairs_by_coupling(bath: Bath, metric: str):
    first, second, coupling = _pair_couplings(bath, metric)
    order = np.lexsort((second, first, -coupling))
    return list(zip(first[order].tolist(), second[order].tolist()))


def cluster_every_pair(bath: Bath, g: int, metric: str = "zz") -> Partition:
    """Greedy clustering that visits all pairs, with no early stop."""
    n = len(bath)
    parent = list(range(n))
    size = [1] * n

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in _pairs_by_coupling(bath, metric) if n > 1 else ():
        ri, rj = find(i), find(j)
        if ri != rj and size[ri] + size[rj] <= g:
            ri, rj = min(ri, rj), max(ri, rj)
            parent[rj] = ri
            size[ri] += size[rj]
    members: dict = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    groups = sorted(tuple(m) for m in members.values())
    return Partition(groups=tuple(groups), g=g, n_spins=n)
