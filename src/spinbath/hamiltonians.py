"""Hamiltonian builders for the defect centers and their carbon baths.

All Hamiltonians are returned in ordinary-frequency units (Hz) on dense
complex arrays.  Basis conventions:

    * every slot orders its states by descending projection m = +s..-s;
    * the six-level nitrogen center is |m_S> (x) |m_I| with the electron
      first, then the bath carbons in the order the group lists them;
    * the NV keeps its full spin-1 triplet as the central slot.

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
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    A_PAR_MHZ,
    A_PERP_MHZ,
    D_NV_MHZ,
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_MHZ_PER_G,
    GAMMA_N14_HZ_PER_G,
    MU0_SI,
    PLANCK_SI,
    Q_N14_MHZ,
)
from .spinops import CompositeSpace, embed, spin_operators

__all__ = [
    "P1Params",
    "NVParams",
    "JtOrientation",
    "P1Center",
    "NVCenter",
    "BareElectron",
    "build_p1_hamiltonian",
    "build_nv_hamiltonian",
    "hyperfine_tensor",
    "build_system_hamiltonian",
    "build_hamiltonian_stack",
    "rotation_onto_axis",
    "label_levels",
]

_OFF_AXIS_COS = -1.0 / 3.0  # tetrahedral bond angle to the field axis


@dataclass(frozen=True)
class P1Params:
    """Constants of the substitutional-nitrogen center.

    gamma_e is in MHz/G; the nuclear ratio in Hz/G; hyperfine and
    quadrupole constants in MHz.  Defaults satisfy a_par > a_perp > 0.
    """

    gamma_e: float = GAMMA_E_MHZ_PER_G
    gamma_n14: float = GAMMA_N14_HZ_PER_G
    a_par: float = A_PAR_MHZ
    a_perp: float = A_PERP_MHZ
    q: float = Q_N14_MHZ

    def __post_init__(self):
        for name in ("gamma_e", "gamma_n14", "a_par", "a_perp", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def gamma_e_hz(self) -> float:
        return self.gamma_e * 1e6


@dataclass(frozen=True)
class NVParams:
    """NV ground-state constants: zero-field splitting (MHz), gamma_e (MHz/G)."""

    d_zfs: float = D_NV_MHZ
    gamma_e: float = GAMMA_E_MHZ_PER_G

    def __post_init__(self):
        if not (math.isfinite(self.d_zfs) and self.d_zfs > 0):
            raise ValueError("d_zfs must be positive and finite")
        if not math.isfinite(self.gamma_e):
            raise ValueError("gamma_e must be finite")

    @property
    def gamma_e_hz(self) -> float:
        return self.gamma_e * 1e6


@dataclass(frozen=True)
class JtOrientation:
    """Principal axis of the nitrogen center's distorted bond.

    Four crystallographic choices exist relative to a field along the
    symmetry axis: one aligned and three at the tetrahedral angle
    (cos theta = -1/3, i.e. 109.47 degrees).  The label is validated
    against the axis; 'custom' axes are accepted unvalidated for frame
    tests.
    """

    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    label: str = "on-axis"

    def __post_init__(self):
        v = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("axis must be non-zero")
        v = v / norm
        object.__setattr__(self, "axis", (float(v[0]), float(v[1]), float(v[2])))
        cos_z = v[2]
        if self.label == "on-axis":
            if abs(cos_z - 1.0) > 1e-9:
                raise ValueError("on-axis label requires the axis along z")
        elif self.label in ("off-axis-1", "off-axis-2", "off-axis-3"):
            # 0.01 degree tolerance on the tetrahedral angle
            if abs(abs(cos_z) - 1.0 / 3.0) > 1.7e-4:
                raise ValueError("off-axis label requires a 109.47 degree axis")
        elif self.label != "custom":
            raise ValueError(f"unknown orientation label {self.label!r}")

    @classmethod
    def on_axis(cls) -> "JtOrientation":
        return cls((0.0, 0.0, 1.0), "on-axis")

    @classmethod
    def off_axis(cls, k: int = 1) -> "JtOrientation":
        if k not in (1, 2, 3):
            raise ValueError("off-axis index must be 1, 2 or 3")
        sin_t = math.sqrt(1.0 - _OFF_AXIS_COS ** 2)
        phi = 2.0 * math.pi * (k - 1) / 3.0
        axis = (sin_t * math.cos(phi), sin_t * math.sin(phi), _OFF_AXIS_COS)
        return cls(axis, f"off-axis-{k}")


def _dipole_tensors(r_nm, gamma1_hz_per_g, gamma2_hz_per_g) -> np.ndarray:
    """Point-dipole tensors, (N, 3, 3) in Hz, for N separations (N, 3) in nm.

    A_ij = c (delta_ij - 3 rhat_i rhat_j) with c from dipole_prefactor_hz;
    the ratios are scalars or length-N arrays.  Each step repeats the
    scalar formula's float operations, so the tensors are bit-identical to
    it: |r| is a dot product (np.vecdot, as np.linalg.norm) and r^3 libm's
    pow, as for a Python float (numpy's power rounds differently).
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
    # c (1 - 3 rhat rhat), built in place: -3x + 1 rounds as 1 - 3x
    a = rhat[:, :, None] * rhat[:, None, :]
    a *= -3.0
    a += np.eye(3)
    a *= c[:, None, None]
    return a


def hyperfine_tensor(r_nm, gamma1_hz_per_g: float,
                     gamma2_hz_per_g: float) -> np.ndarray:
    """Point-dipole tensor A with A_ij = c (delta_ij - 3 rhat_i rhat_j).

    Separation in nm, gyromagnetic ratios in Hz/G (signed), result 3x3 in
    Hz.  The tensor is symmetric and exactly traceless and scales as 1/r^3.
    """
    return _dipole_tensors(r_nm, gamma1_hz_per_g, gamma2_hz_per_g)[0]


def rotation_onto_axis(n) -> np.ndarray:
    """Proper rotation R with R @ zhat = n (Rodrigues form).

    Any transverse completion is equally valid for an axially symmetric
    tensor; this one rotates about zhat x n.
    """
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, n)
    c = float(np.dot(z, n))
    if np.linalg.norm(v) < 1e-12:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]],
                   [v[2], 0.0, -v[0]],
                   [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _field_vector(b) -> np.ndarray:
    """A field in G as a 3-vector; a scalar lies along z."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape == (1,):
        b = np.array([0.0, 0.0, b[0]])
    if b.shape != (3,):
        raise ValueError("field must be a scalar (along z) or a 3-vector, in G")
    if not np.isfinite(b).all():
        raise ValueError("field must be finite")
    return b


def _zeeman(gamma_hz_per_g: float, b_vec: np.ndarray, ops) -> np.ndarray:
    # physical sign: H = -gamma B . S
    return -gamma_hz_per_g * (b_vec[0] * ops[0] + b_vec[1] * ops[1]
                              + b_vec[2] * ops[2])


@functools.lru_cache(maxsize=None)
def _p1_operators():
    """Electron and 14N spin operators embedded in the six-level space."""
    space = CompositeSpace((2, 3))
    half = spin_operators(0.5)
    one = spin_operators(1.0)
    return (tuple(embed(o, 0, space) for o in (half.sx, half.sy, half.sz)),
            tuple(embed(o, 1, space) for o in (one.sx, one.sy, one.sz)))


def build_p1_hamiltonian(params: P1Params, b, jt) -> np.ndarray:
    """Six-level Hamiltonian of the nitrogen center in Hz.

    Zeeman terms for the electron and the 14N, the axial/transverse
    hyperfine coupling along the bond axis, and the nuclear quadrupole
    term.  `jt` is a JtOrientation or a raw axis vector.
    """
    axis = jt.axis if isinstance(jt, JtOrientation) else jt
    b_vec = _field_vector(b)
    s_ops, i_ops = _p1_operators()

    r = rotation_onto_axis(axis)
    xp, yp, zp = r[:, 0], r[:, 1], r[:, 2]

    def along(ops, u):
        return u[0] * ops[0] + u[1] * ops[1] + u[2] * ops[2]

    s_zp = along(s_ops, zp)
    i_zp = along(i_ops, zp)
    h = _zeeman(params.gamma_e_hz, b_vec, s_ops)
    h = h + _zeeman(params.gamma_n14, b_vec, i_ops)
    h = h + params.a_par * 1e6 * (s_zp @ i_zp)
    h = h + params.a_perp * 1e6 * (along(s_ops, xp) @ along(i_ops, xp)
                                   + along(s_ops, yp) @ along(i_ops, yp))
    h = h + params.q * 1e6 * (i_zp @ i_zp)
    return h


def build_nv_hamiltonian(params: NVParams, b) -> np.ndarray:
    """Spin-1 NV ground-state Hamiltonian, symmetry axis fixed to z."""
    b_vec = _field_vector(b)
    one = spin_operators(1.0)
    h = params.d_zfs * 1e6 * (one.sz @ one.sz)
    return h + _zeeman(params.gamma_e_hz, b_vec, (one.sx, one.sy, one.sz))


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

    params: P1Params = field(default_factory=P1Params)
    jt: JtOrientation = field(default_factory=lambda: JtOrientation.off_axis(1))
    m_i: int | None = -1

    def __post_init__(self):
        if self.m_i is not None and self.m_i not in (-1, 0, 1):
            raise ValueError("m_i must be -1, 0, +1 or None")

    @property
    def dims(self) -> tuple[int, ...]:
        return (2, 3)

    @property
    def gamma_e_hz(self) -> float:
        return self.params.gamma_e_hz

    def hamiltonian(self, b) -> np.ndarray:
        return build_p1_hamiltonian(self.params, b, self.jt)

    def electron_ops(self):
        return list(_p1_operators()[0])

    def level_pair(self, evals, evecs) -> tuple[int, int]:
        """Eigenstate indices labeled (m_S=+1/2, m_i) and (-1/2, m_i)."""
        if self.m_i is None:
            raise ValueError("thermal nitrogen has no single level pair; "
                             "fix m_i first")
        labels = label_levels(evecs, self.dims)
        found = {}
        for idx, ((ms, mi), weight) in enumerate(labels):
            if weight <= 0.5:
                continue
            if round(mi) == self.m_i and abs(abs(ms) - 0.5) < 1e-9:
                found[0.5 if ms > 0 else -0.5] = idx
        if 0.5 not in found or -0.5 not in found:
            raise ValueError(
                "could not identify both electron levels at m_i = "
                f"{self.m_i}; state mixing leaves no dominant labels")
        return found[0.5], found[-0.5]


@dataclass(frozen=True)
class NVCenter:
    """An NV center probed on a two-level subspace of the triplet."""

    params: NVParams = field(default_factory=NVParams)
    levels: tuple[int, int] = (0, -1)

    def __post_init__(self):
        lv = tuple(int(v) for v in self.levels)
        if sorted(lv) not in ([-1, 0], [-1, 1], [0, 1]):
            raise ValueError("levels must be two distinct projections of m_S")
        object.__setattr__(self, "levels", lv)

    @property
    def dims(self) -> tuple[int, ...]:
        return (3,)

    @property
    def gamma_e_hz(self) -> float:
        return self.params.gamma_e_hz

    def hamiltonian(self, b) -> np.ndarray:
        return build_nv_hamiltonian(self.params, b)

    def electron_ops(self):
        one = spin_operators(1.0)
        return [one.sx, one.sy, one.sz]

    def level_pair(self, evals, evecs) -> tuple[int, int]:
        """Indices of the (first, second) named m_S levels; first is initialized."""
        labels = label_levels(evecs, self.dims)
        found = {}
        for idx, ((ms,), weight) in enumerate(labels):
            if weight > 0.5:
                found[int(round(ms))] = idx
        try:
            return found[self.levels[0]], found[self.levels[1]]
        except KeyError as err:
            raise ValueError(
                f"m_S = {err.args[0]} has no dominant eigenstate at this "
                "field; the subspace is not addressable") from None


@dataclass(frozen=True)
class BareElectron:
    """A lone spin-1/2 electron; the reduction used for closed-form checks."""

    gamma_e: float = GAMMA_E_MHZ_PER_G  # MHz/G

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,)

    @property
    def gamma_e_hz(self) -> float:
        return self.gamma_e * 1e6

    def hamiltonian(self, b) -> np.ndarray:
        b_vec = _field_vector(b)
        half = spin_operators(0.5)
        return _zeeman(self.gamma_e_hz, b_vec, (half.sx, half.sy, half.sz))

    def electron_ops(self):
        half = spin_operators(0.5)
        return [half.sx, half.sy, half.sz]

    def level_pair(self, evals, evecs) -> tuple[int, int]:
        labels = label_levels(evecs, self.dims)
        found = {}
        for idx, ((ms,), weight) in enumerate(labels):
            if weight > 0.5:
                found[0.5 if ms > 0 else -0.5] = idx
        if 0.5 not in found or -0.5 not in found:
            raise ValueError("electron eigenstates are fully mixed; "
                             "no projection labels available")
        return found[0.5], found[-0.5]


def build_system_hamiltonian(central, group, b, **options) -> np.ndarray:
    """Hamiltonian of a central spin plus one group: a one-group stack."""
    return build_hamiltonian_stack(central, [group], b, **options)[0]


def build_hamiltonian_stack(central, groups, b, *, include_nn: bool = True,
                            secular_hyperfine: bool = False,
                            hyperfine_scale: float = 1.0) -> np.ndarray:
    """Hamiltonians (G, D, D) in Hz of a central spin plus each of G groups.

    All groups must have the same size k.  The composite space is
    [central slots..., carbon 1, ..., carbon k] in the order each group
    lists them.  Each carbon gets its Zeeman term and a point-dipole
    hyperfine coupling to the central electron; carbon pairs inside a
    group are dipole-coupled to each other unless include_nn is False (the
    bare product form).  secular_hyperfine keeps only the S_z row of each
    electron-carbon tensor, the regime in which the echo has a closed
    form, and hyperfine_scale multiplies the electron-carbon coupling (0
    decouples the bath); both are validation modes, not the model.
    """
    if central is None:
        raise ValueError("a central-spin specification is required")
    groups = [list(group) for group in groups]
    n, k = len(groups), len(groups[0]) if groups else 0
    if any(len(group) != k for group in groups):
        raise ValueError("the groups of one stack must share a size")
    spins = [s for group in groups for s in group]
    pos = np.array([s.position for s in spins], dtype=float).reshape(n, k, 3)
    gamma = np.array([s.gamma for s in spins], dtype=float).reshape(n, k)
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
        np.concatenate([np.full((n, k), central.gamma_e_hz), gamma[:, i]],
                       axis=1).ravel(),
        np.concatenate([gamma, gamma[:, j]], axis=1).ravel()).reshape(n, -1, 9)
    hyperfine = hyperfine_scale * tensors[:, :k]
    if secular_hyperfine:
        hyperfine[:, :, :6] = 0.0
    # coefficients (n, terms) in the row order of _group_operators
    zeeman = -gamma[:, :, None] * _field_vector(b)
    coeffs = np.concatenate([zeeman, hyperfine], axis=2).reshape(n, -1)
    if include_nn:
        coeffs = np.concatenate([coeffs, tensors[:, k:].reshape(n, -1)], axis=1)
    # One term at a time in a fixed order, zeros skipped: the diagonal holds
    # the central spin's splittings (GHz for the NV), and a summed update
    # (tensordot) rounds it differently, moving NV CPMG echoes by 3e-10.
    for c, op in zip(coeffs.T, _group_operators(central, k)):
        keep = c != 0.0
        if keep.all():
            h += c[:, None, None] * op
        elif keep.any():
            np.add(h, c[:, None, None] * op, out=h, where=keep[:, None, None])
    return h


_GROUP_OPERATORS: dict = {}


def _group_operators(central, k: int) -> np.ndarray:
    """Operator stack of a central spin plus k carbons, built once per kind.

    Rows, in order: for each carbon its x, y, z operators (the Zeeman
    term) and its 9 products S_i I_j with the electron; then for each pair
    of carbons, in index order, the 9 products I_i I'_j.  Cached per
    (central type, dims, k), which fixes the electron operators.
    """
    key = (type(central), tuple(central.dims), k)
    ops = _GROUP_OPERATORS.get(key)
    if ops is None:
        space = CompositeSpace(tuple(central.dims) + (2,) * k)
        eye_b = np.eye(1 << k, dtype=complex)
        half = spin_operators(0.5)
        s_ops = [np.kron(o, eye_b) for o in central.electron_ops()]
        carbons = [[embed(o, len(central.dims) + m, space)
                    for o in (half.sx, half.sy, half.sz)] for m in range(k)]
        terms = [t for ops_m in carbons
                 for t in ops_m + [s @ c for s in s_ops for c in ops_m]]
        terms += [c1 @ c2 for m1, m2 in itertools.combinations(range(k), 2)
                  for c1 in carbons[m1] for c2 in carbons[m2]]
        ops = np.array(terms)
        ops.flags.writeable = False
        _GROUP_OPERATORS[key] = ops
    return ops
