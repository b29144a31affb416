"""Reference code used only by the tests.

Brute-force counterparts of what the library does in its eigenbasis
kernel: exact propagators, validated density matrices, projectors, and an
operator or an ideal pulse embedded in a composite space.  One-at-a-time
counterparts of its vectorised set-up: a group Hamiltonian assembled from
scalar dipole tensors and dense terms, the operator terms as matrix
products of embedded operators, the coupling of one pair of bath spins,
the greedy clustering visiting every pair, and the lattice enumeration
over a whole cube of cells sorted by a four-key lexsort.  An off-lattice
bath of uniform points, for the clustering, which assumes no lattice.  The
validation forms of a group Hamiltonian that the library does not build
(secular hyperfine, a scaled or decoupled bath) and the echo the library
kernel gives on them.
An unrolled echo kernel that propagates one (D, T*nb) slab per group and
probed pair, with every pulse moved to the eigenbasis.  The conditional
precession frequencies of a bath one spin at a time.  Also a bath's JSON
form and its inverse, a bath's nearest-spin distance, a schedule's total
evolution time, a number density converted back to ppm, the revival
finder and the coherence-time (T2) fit that the acceptance gate runs on
echo curves, and such a fit as a dict.  The nitrogen center's Hamiltonian
in an explicit bond frame, the form the library's axial closed form must
reproduce.
"""

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from spinbath.bathgen import (Bath, Partition, _check_site_budget,
                              _pair_couplings)
from spinbath.constants import (
    A_PAR_MHZ,
    A_PERP_MHZ,
    C13_ABUNDANCE,
    DIAMOND_ATOM_DENSITY_NM3,
    DIAMOND_BOND_NM,
    DIAMOND_LATTICE_NM,
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    GAMMA_N14_HZ_PER_G,
    Q_N14_MHZ,
    dipole_prefactor_hz,
)
from spinbath.dynamics import (EchoCurve, _group_curves, _levels,
                               _pair_unitary, _plans, _progression, _Setup)
from spinbath.hamiltonians import (_dense_terms, _dipole_tensors,
                                   _field_vector, _p1_operators,
                                   spin_operators)
from spinbath.pulses import Pulse, compile_schedule, two_level_unitary


def bath_to_json(bath: Bath) -> str:
    """A bath's positions and gyromagnetic ratios as JSON text."""
    return json.dumps({"positions": bath.positions.tolist(),
                       "gammas": bath.gammas.tolist()}, indent=2)


def bath_from_json(text: str) -> Bath:
    """Inverse of bath_to_json."""
    payload = json.loads(text)
    return Bath(payload["positions"], payload["gammas"])


def radii(bath: Bath) -> np.ndarray:
    """Distance from the origin of each bath spin (nm)."""
    return np.sqrt((bath.positions * bath.positions).sum(axis=1))


def nearest_distance(bath: Bath) -> float:
    """Distance from the origin to the closest bath spin (nm)."""
    if not len(bath):
        raise ValueError("empty bath has no nearest spin")
    return float(radii(bath).min())


def total_time(schedule: tuple) -> float:
    """Total free-evolution time of a compiled schedule (seconds)."""
    return sum(e for e in schedule if not isinstance(e, Pulse))


def density_nm3_to_ppm(n_nm3: float) -> float:
    """Inverse of constants.ppm_to_density_nm3."""
    return n_nm3 / DIAMOND_ATOM_DENSITY_NM3 * 1e6


def detect_revivals(curve: EchoCurve, expected_period: float) -> list[float]:
    """Local echo maxima near integer multiples of the expected period.

    Each window [n - 0.4, n + 0.4] * period is searched for an interior
    local maximum, refined by quadratic interpolation through the peak
    and its neighbors.  Windows without a maximum are skipped with a
    warning; monotone curves yield an empty list.
    """
    if expected_period <= 0:
        raise ValueError("expected_period must be positive")
    tau = np.asarray(curve.tau)
    sig = np.asarray(curve.signal)
    if len(tau) < 3:
        return []
    revivals = []
    n_max = int(math.floor(tau[-1] / expected_period + 0.4))
    for n in range(1, n_max + 1):
        lo, hi = (n - 0.4) * expected_period, (n + 0.4) * expected_period
        idx = np.nonzero((tau >= lo) & (tau <= hi))[0]
        idx = idx[(idx > 0) & (idx < len(tau) - 1)]
        peaks = [k for k in idx if sig[k] >= sig[k - 1] and sig[k] >= sig[k + 1]]
        if not peaks:
            warnings.warn(f"no echo maximum inside window {n} "
                          f"([{lo * 1e6:.2f}, {hi * 1e6:.2f}] us)")
            continue
        k = max(peaks, key=lambda i: sig[i])
        t, y = tau[k - 1:k + 2], sig[k - 1:k + 2]
        # vertex of the parabola through the three points (any spacing)
        a, b, _ = np.polyfit(t - t[1], y, 2)
        if a >= 0:  # flat or degenerate triple: keep the grid point
            revivals.append(float(tau[k]))
        else:
            revivals.append(float(t[1] - b / (2 * a)))
    return revivals


@dataclass(frozen=True)
class FitResult:
    """Coherence-time fit: T2, model tag, residual norm, revival times."""

    t2: float
    model: str
    residual_norm: float
    revival_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.t2 > 0:
            raise ValueError("t2 must be positive")
        times = tuple(float(t) for t in self.revival_times)
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("revival_times must ascend")
        object.__setattr__(self, "revival_times", times)


def _peak_amplitudes(curve: EchoCurve, revival_times) -> list[float]:
    tau = np.asarray(curve.tau)
    sig = np.asarray(curve.signal)
    return [float(np.interp(t, tau, sig)) for t in revival_times]


def fit_t2(curve: EchoCurve, model: str = "exponential", *,
           expected_period: float | None = None) -> FitResult:
    """Fit the revival envelope (or the bare curve) to a decay law.

    The envelope is the set of revival maxima anchored at (0, 1); when
    fewer than three revivals exist the whole curve is fitted instead
    (at least five points).  model is "exponential" (exp(-tau/T2)) or
    "gaussian" (exp(-(tau/T2)^2)).  The revival period comes from the
    curve metadata's field unless expected_period is given.  Flat data
    raises: a decay time is not identifiable from it.
    """
    if model not in ("exponential", "gaussian"):
        raise ValueError(f"unknown model {model!r}")
    if expected_period is None:
        b_vec = curve.metadata.get("b_field_gauss")
        if b_vec is None:
            raise ValueError("curve metadata has no field; pass expected_period")
        b_mag = float(np.linalg.norm(b_vec))
        if b_mag <= 0:
            raise ValueError("zero field; pass expected_period explicitly")
        expected_period = 1.0 / (GAMMA_C13_HZ_PER_G * b_mag)

    revivals = detect_revivals(curve, expected_period)
    if len(revivals) >= 3:
        x = np.array([0.0] + revivals)
        y = np.array([1.0] + _peak_amplitudes(curve, revivals))
    else:
        if len(curve.tau) < 5:
            raise ValueError("need at least 3 revivals or 5 curve points")
        x = np.asarray(curve.tau)
        y = np.asarray(curve.signal)

    if float(np.ptp(y)) < 1e-12:
        raise ValueError("flat signal; decay time is not identifiable")

    if model == "exponential":
        def decay(t, t2):
            return np.exp(-t / t2)
    else:
        def decay(t, t2):
            return np.exp(-((t / t2) ** 2))

    t_scale = float(x[-1]) if x[-1] > 0 else expected_period
    popt, _ = curve_fit(decay, x, y, p0=[0.5 * t_scale],
                        bounds=(1e-12, np.inf), maxfev=10000)
    t2 = float(popt[0])
    residual = float(np.linalg.norm(decay(x, t2) - y))
    return FitResult(t2=t2, model=model, residual_norm=residual,
                     revival_times=tuple(revivals))


def fit_to_dict(fit) -> dict:
    """A FitResult's fields, keyed with their units."""
    return {"t2_s": fit.t2, "model": fit.model,
            "residual_norm": fit.residual_norm,
            "revival_times_s": list(fit.revival_times)}


def projector(ops, m: float) -> np.ndarray:
    """Projector onto the eigenstate of sz with projection m, for the
    (sx, sy, sz) of spin_operators."""
    dim = len(ops[2])
    s = (dim - 1) / 2.0
    idx = int(round(s - m))
    if not (0 <= idx < dim):
        raise ValueError(f"projection {m} outside spin-{s} ladder")
    p = np.zeros((dim, dim), dtype=complex)
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


def embed(op, slot: int, dims) -> np.ndarray:
    """op on the given slot of the tensor product of spaces of dimensions
    dims, with identities on every other slot."""
    op = np.asarray(op, dtype=complex)
    if any(d < 2 for d in dims):
        raise ValueError("every slot must have dimension >= 2")
    if not (0 <= slot < len(dims)):
        raise ValueError(f"slot {slot} outside space with {len(dims)} slots")
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(
            f"operator dimension {op.shape} does not match slot dimension "
            f"{dims[slot]}")
    factors = [op if k == slot else np.eye(d, dtype=complex)
               for k, d in enumerate(dims)]
    return functools.reduce(np.kron, factors)


def rotation(axis, angle: float, slot: int, dims,
             subspace: tuple[int, int] | None = None) -> np.ndarray:
    """Ideal instantaneous pulse on a two-level subspace of one slot.

    For a two-dimensional slot the subspace defaults to the whole slot;
    larger slots must name the two basis levels being driven.  The result
    acts as the identity everywhere outside the named pair.
    """
    dim = dims[slot] if 0 <= slot < len(dims) else None
    if dim is None:
        raise ValueError(f"slot {slot} outside space with {len(dims)} slots")
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
    return embed(u, slot, dims)


def scalar_dipole_tensor(r_nm, gamma1: float, gamma2: float) -> np.ndarray:
    """Point-dipole tensor of one pair by the scalar formula (Hz)."""
    r = np.asarray(r_nm, dtype=float)
    dist = float(np.linalg.norm(r))
    rhat = r / dist
    c = dipole_prefactor_hz(gamma1, gamma2, dist)
    return c * (np.eye(3) - 3.0 * np.outer(rhat, rhat))


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


def p1_hamiltonian_in_frame(b, axis) -> np.ndarray:
    """The nitrogen center's Hamiltonian (Hz) in the bond frame (x', y', z')
    of rotation_onto_axis(axis): A_par S_z' I_z' + A_perp (S_x' I_x' +
    S_y' I_y') + Q I_z'^2 besides the two Zeeman terms."""
    b_vec = _field_vector(b)
    s_ops, i_ops = _p1_operators()
    r = rotation_onto_axis(axis)

    def along(ops, u):
        return u[0] * ops[0] + u[1] * ops[1] + u[2] * ops[2]

    xp, yp, zp = r[:, 0], r[:, 1], r[:, 2]
    h = -GAMMA_E_HZ_PER_G * along(s_ops, b_vec)
    h = h - GAMMA_N14_HZ_PER_G * along(i_ops, b_vec)
    h = h + A_PAR_MHZ * 1e6 * (along(s_ops, zp) @ along(i_ops, zp))
    h = h + A_PERP_MHZ * 1e6 * (along(s_ops, xp) @ along(i_ops, xp)
                                + along(s_ops, yp) @ along(i_ops, yp))
    return h + Q_N14_MHZ * 1e6 * (along(i_ops, zp) @ along(i_ops, zp))


def group_hamiltonian(central, group, b, *, include_nn=True,
                      secular_hyperfine=False, hyperfine_scale=1.0):
    """One group's (a Bath's) Hamiltonian, one tensor and one term at a time.

    With the defaults this is the model, which the stacked builder must
    reproduce bit for bit: the same terms, added in the same order, with
    zero coefficients skipped.  secular_hyperfine keeps only the S_z row of
    each electron-carbon tensor, the regime in which the echo has a closed
    form, and hyperfine_scale multiplies the electron-carbon coupling (0
    decouples the bath): validation forms, not the model.
    """
    h = np.kron(central.hamiltonian(b), np.eye(1 << len(group), dtype=complex))
    if not len(group):
        return h
    b_vec = _field_vector(b)
    coeffs = []
    for position, gamma in zip(group.positions, group.gammas.tolist()):
        tensor = np.zeros((3, 3))
        if hyperfine_scale != 0.0:
            tensor = hyperfine_scale * scalar_dipole_tensor(
                position, GAMMA_E_HZ_PER_G, gamma)
        if secular_hyperfine:
            tensor[:2] = 0.0
        coeffs += [-gamma * b_vec, tensor.ravel()]
    if include_nn:
        for i, j in itertools.combinations(range(len(group)), 2):
            r = group.positions[j] - group.positions[i]
            coeffs.append(scalar_dipole_tensor(
                r, float(group.gammas[i]), float(group.gammas[j])).ravel())
    for c, op in zip(np.concatenate(coeffs), _term_stack(central, len(group))):
        if c != 0.0:
            h += c * op
    return h


def plans_from_schedules(program, grid) -> tuple:
    """(eta, plans) of program on grid, from the schedules compiled at each
    tau, grouped by event structure, one propagation plan each.

    eta is the sign normalization from the zero-delay composition on the
    pair.  A plan is (steps, indices, durations, progression, span).  steps
    are the events with each interval replaced by the row of durations, a
    (distinct intervals, schedules) array, that holds its length on every
    schedule; intervals of equal length on every schedule share a row.
    progression is _progression(durations), and span the (first, last)
    steps that run on the slab, from the first interval to the last.  Taus
    of one program share a structure except tau = 0, whose symbolic
    intervals are dropped.
    """
    schedules = [compile_schedule(program, tau) for tau in grid]
    indices: dict = {}
    for k, schedule in enumerate(schedules):
        steps = tuple(e if isinstance(e, Pulse) else None for e in schedule)
        indices.setdefault(steps, []).append(k)
    plans = []
    for steps, index in indices.items():
        lengths = zip(*([e for e in schedules[k] if not isinstance(e, Pulse)]
                        for k in index))
        rows: dict = {}
        slots = iter([rows.setdefault(row, len(rows)) for row in lengths])
        steps_rows = tuple(next(slots) if step is None else step
                           for step in steps)
        durations = np.array(list(rows)).reshape(len(rows), len(index))
        free = [k for k, step in enumerate(steps) if step is None]
        span = (free[0], free[-1] + 1) if free else (len(steps),) * 2
        plans.append((steps_rows, np.array(index), durations,
                      _progression(durations), span))
    zero_delay = _pair_unitary(compile_schedule(program, 0.0))[0, 0]
    eta = -1.0 if 2.0 * abs(zero_delay) ** 2 - 1.0 < -0.99 else 1.0
    return eta, plans


def kernel_signal(central, group, program, tau, b, **options) -> float:
    """S_G of one group under program at one tau through the library
    kernel, as dynamics.group_signal gives it for the model, but on
    group_hamiltonian(**options); for a central spin with one probed pair
    (not a thermal nitrogen)."""
    w, v = np.linalg.eigh(group_hamiltonian(central, group, b, **options))
    setup = _Setup(central, b, _levels(central, b)[0], _plans(program, [tau]),
                   [len(group)])
    return float(_group_curves(w[None], v[None], setup)[0, 0, 0])


def larmor_by_spin(central, bath, b):
    """(frequencies per branch, flagged spins) of
    analysis.larmor_distribution, one spin at a time: per probed central
    level, the gap of the two eigenstates of the central+one-carbon
    Hamiltonian with most weight on it, flagged where either weight is
    below 3/4."""
    (_, branch_states), = _levels(central, b)[0]
    dc = len(branch_states[0])
    freqs = ([], [])
    flagged = []
    for index in range(len(bath)):
        spin = Bath(bath.positions[index:index + 1],
                    bath.gammas[index:index + 1])
        w, v = np.linalg.eigh(group_hamiltonian(central, spin, b))
        ambiguous = False
        for branch, cvec in enumerate(branch_states):
            m = v.reshape(dc, 2, len(w))
            overlap = np.einsum("c,cbk->bk", cvec.conj(), m)
            weight = np.abs(overlap[0]) ** 2 + np.abs(overlap[1]) ** 2
            top = np.argsort(weight)[-2:]
            if weight[top].min() < 0.75:
                ambiguous = True
            freqs[branch].append(abs(float(w[top[0]] - w[top[1]])))
        if ambiguous:
            flagged.append(index)
    return (tuple(freqs[0]), tuple(freqs[1])), tuple(flagged)


# fractional coordinates of the 8-atom conventional diamond cell
_CELL_SITES = np.array([
    [0.00, 0.00, 0.00], [0.00, 0.50, 0.50],
    [0.50, 0.00, 0.50], [0.50, 0.50, 0.00],
    [0.25, 0.25, 0.25], [0.25, 0.75, 0.75],
    [0.75, 0.25, 0.75], [0.75, 0.75, 0.25],
])


def lattice_sites_by_lexsort(r_max: float) -> np.ndarray:
    """Sites of every cell of a cube, cut to 0 < r <= r_max, lexsorted."""
    a = DIAMOND_LATTICE_NM
    m = int(math.ceil(r_max / a)) + 1
    _check_site_budget(len(_CELL_SITES) * (2 * m + 1) ** 3, r_max)
    cells = np.arange(-m, m + 1)
    ci, cj, ck = np.meshgrid(cells, cells, cells, indexing="ij")
    corners = np.stack([ci.ravel(), cj.ravel(), ck.ravel()], axis=1)
    sites = (corners[:, None, :] + _CELL_SITES[None, :, :]).reshape(-1, 3) * a
    r2 = np.einsum("ij,ij->i", sites, sites)
    keep = (r2 > 1e-18) & (r2 <= r_max * r_max)
    sites, r2 = sites[keep], r2[keep]
    order = np.lexsort((sites[:, 2], sites[:, 1], sites[:, 0], r2))
    return sites[order]


def first_ball_radius(n_spins: int, abundance: float,
                      min_radius: float) -> float:
    """The radius of a ball expected to hold n_spins occupied sites with
    headroom, and two bond lengths beyond min_radius."""
    volume = n_spins / (abundance * DIAMOND_ATOM_DENSITY_NM3)
    return max((volume * 3.0 / (4.0 * math.pi)) ** (1.0 / 3.0) * 1.3,
               min_radius + 2.0 * DIAMOND_BOND_NM)


def lattice_bath_by_ball(seed: int, n_spins: int,
                         abundance: float = C13_ABUNDANCE,
                         min_radius: float = DIAMOND_BOND_NM) -> np.ndarray:
    """The sites of a lattice bath drawn over whole balls: one occupancy
    draw over the sorted sites of a ball with headroom (first_ball_radius),
    grown 1.4x until the occupied sites beyond min_radius suffice."""
    r_max = first_ball_radius(n_spins, abundance, min_radius)
    r2_min = (min_radius * (1.0 - 1e-9)) ** 2
    while True:
        sites = lattice_sites_by_lexsort(r_max)
        rng = np.random.default_rng(seed)
        occupied = sites[rng.random(len(sites)) < abundance]
        occupied = occupied[np.einsum("ij,ij->i", occupied, occupied)
                            >= r2_min]
        if len(occupied) >= n_spins:
            return occupied[:n_spins]
        r_max *= 1.4


def ball_bath(seed: int, n_spins: int,
              min_radius: float = DIAMOND_BOND_NM) -> Bath:
    """An off-lattice bath: 2 n_spins points from default_rng(seed), uniform
    in the shell beyond min_radius that holds them at the density of
    natural-abundance carbon-13, and of those the n_spins nearest the
    origin, nearest first."""
    rng = np.random.default_rng(seed)
    inner = min_radius ** 3
    outer = inner + 2 * n_spins * 3.0 / (
        4.0 * math.pi * C13_ABUNDANCE * DIAMOND_ATOM_DENSITY_NM3)
    radius = (inner + (outer - inner) * rng.random(2 * n_spins)) ** (1.0 / 3.0)
    direction = rng.normal(size=(2 * n_spins, 3))
    points = direction / np.linalg.norm(direction, axis=1)[:, None] \
        * radius[:, None]
    return Bath(points[np.argsort(radius)[:n_spins]])


def gemm_terms(central, k: int):
    """The terms of hamiltonians._dense_terms, in its order, each built as
    a D x D matrix product of operators embedded in the whole space."""
    dims = tuple(central.dims) + (2,) * k
    s_ops = [embed(o, 0, dims) for o in spin_operators((dims[0] - 1) / 2)]
    carbons = [[embed(o, len(central.dims) + m, dims)
                for o in spin_operators(0.5)] for m in range(k)]
    for ops_m in carbons:
        yield from ops_m
        yield from (s @ c for s in s_ops for c in ops_m)
    for m1, m2 in itertools.combinations(range(k), 2):
        yield from (c1 @ c2 for c1 in carbons[m1] for c2 in carbons[m2])


_TERM_STACKS: dict = {}


def _term_stack(central, k: int) -> np.ndarray:
    """The dense terms of _dense_terms as one (terms, D, D) stack, per kind."""
    key = (type(central), tuple(central.dims), k)
    if key not in _TERM_STACKS:
        _TERM_STACKS[key] = np.stack(list(_dense_terms(central.dims, k)))
    return _TERM_STACKS[key]


def pair_coupling(bath: Bath, i: int, j: int) -> float:
    """Coupling magnitude (Hz) of bath spins i and j, |A_zz| of their
    point-dipole tensor."""
    r = bath.positions[j] - bath.positions[i]
    return abs(float(_dipole_tensors(r, float(bath.gammas[i]),
                                     float(bath.gammas[j]))[0, 2, 2]))


def every_pair_coupling(bath: Bath):
    """(i, j, coupling) of every pair i < j, in pair order."""
    first, second = np.triu_indices(len(bath), 1)
    return first, second, _pair_couplings(bath.positions, bath.gammas,
                                          first, second)


@functools.lru_cache(maxsize=2)
def _pairs_by_coupling(bath: Bath):
    first, second, coupling = every_pair_coupling(bath)
    order = np.lexsort((second, first, -coupling))
    return list(zip(first[order].tolist(), second[order].tolist()))


def cluster_every_pair(bath: Bath, g: int) -> Partition:
    """Greedy clustering that visits all pairs, with no early stop."""
    n = len(bath)
    parent = list(range(n))
    size = [1] * n

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in _pairs_by_coupling(bath) if n > 1 else ():
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


def group_curves_unrolled(w, v, a, b, eta, plans,
                          n_schedules: int) -> np.ndarray:
    """S_G of each group of one size on every schedule, for one pair (a, b),
    on the sign eta and plans of dynamics._plans.

    The unrolled reference for dynamics._group_curves: per group, every
    distinct rotation is moved to the eigenbasis; rotations before the
    first interval act on the nb initial columns and those after the last
    fold into the read-out row; in between, the (D, T*nb) slab of a plan
    takes one GEMM per rotation and one broadcast phase multiply per
    interval.
    """
    dim, dc = w.shape[1], len(a)
    nb = dim // dc
    eye_b = np.eye(nb, dtype=complex)
    select = np.kron(a.reshape(dc, 1), eye_b)
    read = np.kron(a.conj().reshape(1, dc), eye_b)
    pair = np.stack([a, b], axis=1)
    lifted = {}
    for step in {s for steps, *_ in plans for s in steps
                 if isinstance(s, Pulse)}:
        u2 = two_level_unitary(step.axis, step.angle_rad)
        uc = np.eye(dc, dtype=complex) \
            + pair @ (u2 - np.eye(2)) @ pair.conj().T
        lifted[step] = np.kron(uc, eye_b)
    out = np.empty((len(w), n_schedules))
    for wg, vg, curve in zip(w, v, out):
        rate = -2j * np.pi * wg
        vh = vg.conj().T
        rotations = {step: vh @ u @ vg for step, u in lifted.items()}
        m0, row0 = vh @ select, read @ vg
        for steps, index, durations, *_ in plans:
            phases = np.exp(rate[:, None, None] * durations)  # (D, rows, T)
            free = [k for k, step in enumerate(steps)
                    if not isinstance(step, Pulse)]
            first, last = (free[0], free[-1] + 1) if free else (len(steps),) * 2
            m, row = m0, row0
            for step in steps[:first]:
                m = rotations[step] @ m
            for step in reversed(steps[last:]):
                row = row @ rotations[step]
            m = np.tile(m, (1, len(index)))
            for step in steps[first:last]:
                if isinstance(step, Pulse):
                    m = rotations[step] @ m
                else:
                    m = (m.reshape(dim, -1, nb)
                         * phases[:, step, :, None]).reshape(dim, -1)
            amp = (row @ m).reshape(nb, -1, nb)
            power = (amp.real ** 2 + amp.imag ** 2).sum(axis=(0, 2))
            curve[index] = eta * (2.0 / nb * power - 1.0)
    return out
