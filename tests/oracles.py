"""Reference code used only by the tests.

Brute-force counterparts of what the library does in its eigenbasis
kernel: exact propagators, validated density matrices, projectors and
ideal pulses embedded in a composite space.  Also the inverses of two
library serialisations: a bath read back from its JSON and a number
density converted back to ppm.
"""

import json
from dataclasses import dataclass

import numpy as np

from spinbath.bathgen import Bath, BathSpin
from spinbath.constants import DIAMOND_ATOM_DENSITY_NM3, DIAMOND_BOND_NM
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
