"""Hamiltonian builders for the defect centers and their carbon baths.

All Hamiltonians are returned in ordinary-frequency units (Hz) on dense
complex arrays, and evolution supplies the 2 pi: U(t) = exp(-i 2 pi H t).
Basis conventions:

    * every slot orders its states by descending projection m = +s..-s;
    * slots are ordered [central electron, central nucleus (if present),
      bath carbon 1..k], the carbons in the order the group lists them:
      the six-level nitrogen center is |m_S> (x) |m_I>;
    * the NV keeps its full spin-1 triplet as the central slot.

The defect constants (gyromagnetic ratios, the 14N hyperfine and
quadrupole constants, the NV zero-field splitting) are read from
constants.py; `spinbath dump-constants` prints them.

Zeeman terms are assembled with the physical magnetic-moment sign,
H_Z = -gamma B . S, for electrons and nuclei alike, with signed
gyromagnetic ratios.  The -gamma convention (rather than a literal
+gamma with the negative electron value) is what places m_S = +1/2
above -1/2 for the electron and reproduces the usual level labels of
low-field nitrogen-center spectroscopy.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    A_PAR_MHZ,
    A_PERP_MHZ,
    D_NV_MHZ,
    GAMMA_E_HZ_PER_G,
    GAMMA_N14_HZ_PER_G,
    MU0_SI,
    PLANCK_SI,
    Q_N14_MHZ,
    as_count,
)

__all__ = [
    "JtOrientation",
    "P1Center",
    "NVCenter",
    "BareElectron",
    "build_p1_hamiltonian",
    "build_nv_hamiltonian",
    "build_system_hamiltonian",
    "build_hamiltonian_stack",
    "label_levels",
    "level_pair",
    "spin_operators",
]

_OFF_AXIS_COS = -1.0 / 3.0  # tetrahedral bond angle to the field axis


def _off_axis(k: int) -> tuple[float, float, float]:
    """Unit vector of bond k = 1..3: the tetrahedral angle, azimuth
    120 (k - 1) degrees; the division by its norm moves the last bit for
    k = 1 and 2."""
    sin_t = math.sqrt(1.0 - _OFF_AXIS_COS ** 2)
    phi = 2.0 * math.pi * (k - 1) / 3.0
    v = np.array([sin_t * math.cos(phi), sin_t * math.sin(phi), _OFF_AXIS_COS])
    return tuple(float(x) for x in v / np.linalg.norm(v))


# unit vector of each bond axis, by label
_JT_AXES = {"on-axis": (0.0, 0.0, 1.0),
            **{f"off-axis-{k}": _off_axis(k) for k in (1, 2, 3)}}


@dataclass(frozen=True)
class JtOrientation:
    """Principal axis of the nitrogen center's distorted bond, by label.

    Four crystallographic choices exist relative to a field along the
    symmetry axis: one aligned (on-axis) and three at the tetrahedral
    angle (cos theta = -1/3, i.e. 109.47 degrees), 120 degrees apart in
    azimuth (off-axis-1..3).  The axis comes from _JT_AXES.
    """

    label: str = "on-axis"

    def __post_init__(self):
        if self.label not in _JT_AXES:
            raise ValueError(f"unknown orientation label {self.label!r}")

    @property
    def axis(self) -> tuple[float, float, float]:
        return _JT_AXES[self.label]

    @classmethod
    def off_axis(cls, k: int = 1) -> "JtOrientation":
        return cls(f"off-axis-{k}")  # its label check refuses k outside 1..3


def _dipole_axes(r_nm, gamma1_hz_per_g, gamma2_hz_per_g):
    """(rhat, c) of N separations (N, 3) in nm: unit vectors and prefactors.

    c is dipole_prefactor_hz; the ratios are scalars or length-N arrays.
    Each step repeats the scalar formula's float operations, so the
    results are bit-identical to it: |r| is a dot product (np.vecdot, as
    np.linalg.norm) and r^3 libm's pow, as for a Python float (numpy's
    power rounds differently).
    """
    r = np.asarray(r_nm, dtype=float).reshape(-1, 3)
    dist = np.sqrt(np.vecdot(r, r))
    if not dist.all():
        raise ValueError("zero separation has no dipole tensor")
    rhat = r / dist[:, None]
    r3 = np.fromiter(map(math.pow, (dist * 1e-9).tolist(),
                         itertools.repeat(3.0)), float, len(dist))
    c = (MU0_SI * PLANCK_SI * (np.asarray(gamma1_hz_per_g) * 1e4)
         * (np.asarray(gamma2_hz_per_g) * 1e4) / (4.0 * math.pi * r3))
    return rhat, c


def _dipole_tensors(r_nm, gamma1_hz_per_g, gamma2_hz_per_g) -> np.ndarray:
    """Point-dipole tensors, (N, 3, 3) in Hz, for N separations (N, 3) in nm.

    A_ij = c (delta_ij - 3 rhat_i rhat_j) from _dipole_axes, bit-identical
    to the scalar formula.
    """
    rhat, c = _dipole_axes(r_nm, gamma1_hz_per_g, gamma2_hz_per_g)
    # c (1 - 3 rhat rhat), built in place: -3x + 1 rounds as 1 - 3x
    a = rhat[:, :, None] * rhat[:, None, :]
    a *= -3.0
    a += np.eye(3)
    a *= c[:, None, None]
    return a


def _field_vector(b) -> np.ndarray:
    """A field in G as a 3-vector; a scalar lies along z."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape == (1,):
        b = np.array([0.0, 0.0, b[0]])
    if b.shape != (3,):
        raise ValueError("field must be a scalar (along z) or a 3-vector, in G")
    # Python floats saturate at inf without a warning, and a non-finite
    # field fails here too
    gamma = abs(GAMMA_E_HZ_PER_G)
    if not math.isfinite(gamma * sum(abs(float(x)) for x in b)):
        raise ValueError(
            "field must be finite, and |b_x| + |b_y| + |b_z| below about "
            f"{sys.float_info.max / gamma:.3g} G, past which the electron "
            "Zeeman term overflows")
    return b


def _along(u, ops) -> np.ndarray:
    """u . ops: the component of a spin operator vector along u."""
    return u[0] * ops[0] + u[1] * ops[1] + u[2] * ops[2]


def _zeeman(gamma_hz_per_g: float, b_vec: np.ndarray, ops) -> np.ndarray:
    # physical sign: H = -gamma B . S
    return -gamma_hz_per_g * _along(b_vec, ops)


@functools.lru_cache(maxsize=None)
def _spin_matrices(twice_s: int):
    s = twice_s / 2.0
    dim = twice_s + 1
    m = s - np.arange(dim)  # descending projections
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        sp[k, k + 1] = np.sqrt(s * (s + 1) - m[k + 1] * (m[k + 1] + 1))
    sx = (sp + sp.conj().T) / 2.0
    sy = (sp - sp.conj().T) / 2.0j
    for a in (sx, sy, sz):
        a.flags.writeable = False
    return sx, sy, sz


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (sx, sy, sz) for spin quantum number s (2s integral),
    hbar = 1, in descending-projection order."""
    twice_s = 2 * s
    if abs(twice_s - round(twice_s)) > 1e-12 or twice_s < 1:
        raise ValueError(f"spin quantum number must be half-integral, got {s}")
    return _spin_matrices(int(round(twice_s)))


@functools.lru_cache(maxsize=None)
def _p1_operators():
    """Electron and 14N spin operators in the six-level space
    |m_S> (x) |m_I>."""
    return (tuple(np.kron(o, np.eye(3)) for o in spin_operators(0.5)),
            tuple(np.kron(np.eye(2), o) for o in spin_operators(1.0)))


def build_p1_hamiltonian(b, axis) -> np.ndarray:
    """Six-level Hamiltonian of the nitrogen center in Hz.

    Zeeman terms for the electron and the 14N, then the hyperfine and
    quadrupole terms, both axial about the bond axis n = axis / |axis|
    (a 3-vector, e.g. a JtOrientation's axis): the hyperfine tensor
    A_perp 1 + (A_par - A_perp) n n^T gives

        A_perp (S . I) + (A_par - A_perp) (n . S)(n . I) + Q (n . I)^2,

    with the constants of constants.py.
    """
    b_vec = _field_vector(b)
    s_ops, i_ops = _p1_operators()
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    i_n = _along(n, i_ops)
    a_par, a_perp = A_PAR_MHZ * 1e6, A_PERP_MHZ * 1e6
    h = _zeeman(GAMMA_E_HZ_PER_G, b_vec, s_ops)
    h = h + _zeeman(GAMMA_N14_HZ_PER_G, b_vec, i_ops)
    # summed before it is added, so that on the z axis each element gets
    # the bits of A_par (S_z I_z) + A_perp (S_x I_x + S_y I_y)
    s_dot_i = s_ops[0] @ i_ops[0] + s_ops[1] @ i_ops[1] + s_ops[2] @ i_ops[2]
    h = h + (a_perp * s_dot_i + (a_par - a_perp) * (_along(n, s_ops) @ i_n))
    h = h + Q_N14_MHZ * 1e6 * (i_n @ i_n)
    return h


def build_nv_hamiltonian(b) -> np.ndarray:
    """Spin-1 NV ground-state Hamiltonian, symmetry axis fixed to z."""
    b_vec = _field_vector(b)
    ops = spin_operators(1.0)
    h = D_NV_MHZ * 1e6 * (ops[2] @ ops[2])
    return h + _zeeman(GAMMA_E_HZ_PER_G, b_vec, ops)


_LABEL_THRESHOLD = 0.5  # dominant amplitude^2 above this gets a name


def label_levels(evecs: np.ndarray, dims: tuple[int, ...]):
    """Label eigenvectors by their dominant product-basis component.

    Returns a list of (projections, weight) where projections holds the
    m value of each slot for the dominant component and weight is its
    squared amplitude.  States with no component above 1/2 are genuinely
    mixed; callers decide how to treat them.
    """
    spins = [(d - 1) / 2.0 for d in dims]
    out = []
    for k in range(evecs.shape[1]):
        amps = np.abs(evecs[:, k]) ** 2
        idx = int(np.argmax(amps))
        projections = []
        rem = idx
        for d, s in zip(reversed(dims), reversed(spins)):
            projections.append(s - (rem % d))
            rem //= d
        out.append((tuple(reversed(projections)), float(amps[idx])))
    return out


# ---------------------------------------------------------------------------
# central-spin specifications consumed by the dynamics and analysis layers


@dataclass(frozen=True)
class P1Center:
    """A nitrogen center addressed on one hyperfine line.

    m_i fixes which 14N projection the drive is resonant with (the pulse
    pair is the two electron eigenstates carrying that label); None means
    a thermal nitrogen, averaged over all three projections.
    """

    jt: JtOrientation = field(default_factory=lambda: JtOrientation.off_axis(1))
    m_i: int | None = -1

    def __post_init__(self):
        if self.m_i is not None:
            object.__setattr__(self, "m_i",
                               as_count(self.m_i, "m_i", -math.inf))
            if self.m_i not in (-1, 0, 1):
                raise ValueError("m_i must be -1, 0, +1 or None")

    @property
    def dims(self) -> tuple[int, ...]:
        return (2, 3)

    def hamiltonian(self, b) -> np.ndarray:
        return build_p1_hamiltonian(b, self.jt.axis)

    @property
    def probed(self) -> tuple[tuple, tuple]:
        """Labels (m_S, m_I) of the pair: (+1/2, m_i) and (-1/2, m_i)."""
        if self.m_i is None:
            raise ValueError("thermal nitrogen has no single level pair; "
                             "fix m_i first")
        return (0.5, self.m_i), (-0.5, self.m_i)


@dataclass(frozen=True)
class NVCenter:
    """An NV center probed on a two-level subspace of the triplet."""

    levels: tuple[int, int] = (0, -1)

    def __post_init__(self):
        lv = tuple(as_count(v, "each NV level", -math.inf)
                   for v in self.levels)
        if sorted(lv) not in ([-1, 0], [-1, 1], [0, 1]):
            raise ValueError("levels must be two distinct projections of m_S")
        object.__setattr__(self, "levels", lv)

    @property
    def dims(self) -> tuple[int, ...]:
        return (3,)

    def hamiltonian(self, b) -> np.ndarray:
        return build_nv_hamiltonian(b)

    @property
    def probed(self) -> tuple[tuple, tuple]:
        """Labels (m_S,) of the pair; the first level is initialized."""
        return (self.levels[0],), (self.levels[1],)


@dataclass(frozen=True)
class BareElectron:
    """A lone spin-1/2 electron; the reduction used for closed-form checks."""

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,)

    def hamiltonian(self, b) -> np.ndarray:
        return _zeeman(GAMMA_E_HZ_PER_G, _field_vector(b), spin_operators(0.5))

    @property
    def probed(self) -> tuple[tuple, tuple]:
        return (0.5,), (-0.5,)


def level_pair(central, evecs) -> tuple[int, int]:
    """Indices of the central eigenvectors labeled central.probed: those
    whose dominant product-basis component carries the label with a weight
    above _LABEL_THRESHOLD (label_levels)."""
    found = {proj: k for k, (proj, weight) in enumerate(label_levels(
        evecs, central.dims)) if weight > _LABEL_THRESHOLD}
    try:
        return tuple(found[label] for label in central.probed)
    except KeyError as err:
        raise ValueError(f"no eigenstate is dominantly labeled {err.args[0]} "
                         "at this field; state mixing leaves the probed pair "
                         "unaddressable") from None


def build_system_hamiltonian(central, group, b, **options) -> np.ndarray:
    """Hamiltonian of a central spin plus one group (a Bath): one stack."""
    return build_hamiltonian_stack(central, group.positions[None],
                                   group.gammas[None], b, **options)[0]


def build_hamiltonian_stack(central, pos, gamma, b, *,
                            include_nn: bool = True) -> np.ndarray:
    """Hamiltonians (G, D, D) in Hz of a central spin plus each of G groups.

    pos (G, k, 3) holds each group's carbon positions in nm and gamma
    (G, k) their gyromagnetic ratios in Hz/G.  The composite space is
    [central slots..., carbon 1, ..., carbon k] in the order each group
    lists them.  Each carbon gets its Zeeman term and a point-dipole
    hyperfine coupling to the central electron; carbon pairs inside a
    group are dipole-coupled to each other unless include_nn is False (the
    bare product form).  Each term enters through its nonzeros alone (see
    _term_table).
    """
    if central is None:
        raise ValueError("a central-spin specification is required")
    pos, gamma = np.asarray(pos, dtype=float), np.asarray(gamma, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 3 or gamma.shape != pos.shape[:2]:
        raise ValueError("a stack takes positions (G, k, 3) and gammas "
                         "(G, k): its groups share a size k")
    if not (np.isfinite(pos).all() and np.isfinite(gamma).all()):
        raise ValueError("bath positions and gammas must be finite")
    n, k = gamma.shape
    i, j = np.triu_indices(k, 1)  # carbon pairs in combinations order
    if (pos[:, i] == pos[:, j]).all(axis=2).any():
        raise ValueError("bath spins must occupy distinct positions")
    h = np.kron(central.hamiltonian(b), np.eye(1 << k, dtype=complex))
    h = np.repeat(h[None], n, axis=0)
    if k == 0:
        return h
    # per group: the k electron-carbon tensors, then the carbon pairs'
    tensors = _dipole_tensors(
        np.concatenate([pos, pos[:, j] - pos[:, i]], axis=1),
        np.concatenate([np.full((n, k), GAMMA_E_HZ_PER_G), gamma[:, i]],
                       axis=1).ravel(),
        np.concatenate([gamma, gamma[:, j]], axis=1).ravel()).reshape(n, -1, 9)
    # coefficients (n, terms) in the order of _dense_terms
    zeeman = -gamma[:, :, None] * _field_vector(b)
    coeffs = np.concatenate([zeeman, tensors[:, :k]], axis=2).reshape(n, -1)
    if include_nn:
        coeffs = np.concatenate([coeffs, tensors[:, k:].reshape(n, -1)], axis=1)
    # One term at a time in a fixed order, zeros skipped: the diagonal holds
    # the central spin's splittings (GHz for the NV), and a summed update
    # (tensordot) rounds it differently, moving NV CPMG echoes by 3e-10.
    # A term adds c * values at its nonzeros, so every nonzero gets the bits
    # of the dense sum.
    flat = h.reshape(n, -1)
    for c, (index, values) in zip(coeffs.T, _term_table(central.dims, k)):
        rows = np.flatnonzero(c != 0.0)
        flat[rows[:, None], index] += c[rows, None] * values
    return h


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices: the same products, without the call
    overhead (about 20 us) that outweighs the work at a few carbons."""
    m, n = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * n, m * n)


def _dense_terms(dims: tuple, k: int):
    """The operator terms of a central spin of slot dimensions dims plus k
    carbons, dense, in turn: per carbon its x, y, z (the Zeeman term) and
    its 9 products S_i I_j with the electron, then per carbon pair, in
    index order, the 9 I_i I'_j.  Each is the kron of a central factor (1,
    or S_i on the first central slot: the electron, of dimension d) and a
    carbon factor.
    """
    carbons = [[_kron(_kron(np.eye(1 << m, dtype=complex), o),
                      np.eye(1 << (k - m - 1), dtype=complex))
                for o in spin_operators(0.5)] for m in range(k)]
    d, *rest = dims
    eye = np.eye(d * math.prod(rest), dtype=complex)
    s_ops = [np.kron(o, np.eye(math.prod(rest)))
             for o in spin_operators((d - 1) / 2)]
    for ops_m in carbons:
        yield from (_kron(eye, c) for c in ops_m)
        yield from (_kron(s, c) for s in s_ops for c in ops_m)
    for m1, m2 in itertools.combinations(range(k), 2):
        yield from (_kron(eye, c1 @ c2)
                    for c1 in carbons[m1] for c2 in carbons[m2])


@functools.lru_cache(maxsize=None)
def _term_table(dims: tuple, k: int) -> list:
    """Per term of _dense_terms(dims, k): the flat indices of its nonzero
    elements (ascending) and their values."""
    return [(np.flatnonzero(term), term[term != 0.0])
            for term in _dense_terms(dims, k)]
