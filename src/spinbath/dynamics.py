"""Disjoint-cluster echo dynamics: group signals, bath products, ensembles.

One kernel computes every echo.  It evolves the central spin together
with one carbon group at a time; the groups of one size are assembled
and diagonalized as one (G, D, D) stack.  The initial state
|a><a| (x) 1/2^g (probed central eigenstate, fully mixed carbons) is
carried as nb = 2^g pure-state columns.  Schedules of one event structure
share a plan (tau = 0 drops the symbolic intervals); the pulses before
its first interval and after its last fold into those columns and the
read-out row, and each group propagates one (D, nb, T) slab over the tau
grid in its eigenbasis: one GEMM per pulse in between and one in-place
phase multiply along tau per interval.  group_signal is the case of one
group and one schedule.  The group signal is

    S_G = 2 Tr[P_a rho_final] - 1,

with P_a the projector onto the initially populated central eigenstate.
Group signals multiply into the bath signal S_T and average over seeded
baths into S_ave.

Pulses are ideal rotations of the probed two-level pair in the frame
resonant with that transition.  The resonant offset enters free evolution
only as a global phase of the relevant block and cancels in S_G, so the
lab-frame Hamiltonian is used directly.  A sequence whose zero-delay
composition returns the population inverted (CPMG, XY8) has its sign
normalized so S(0) = 1 for every echo-type sequence.

tau is the per-arm delay: a Hahn echo at tau evolves for 2*tau in total.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bathgen, hamiltonians, pulses
from .bathgen import Bath, Partition, child_seed
from .constants import (
    A_PAR_MHZ,
    A_PERP_MHZ,
    D_NV_MHZ,
    DIAMOND_BOND_NM,
    GAMMA_E_MHZ_PER_G,
    Q_N14_MHZ,
)
from .hamiltonians import NVCenter, P1Center
from .pulses import (
    Interval,
    Pulse,
    PulseProgram,
    Schedule,
    canonical_text,
    expand_preset,
)
from .spinops import two_level_unitary

__all__ = [
    "SimulationConfig",
    "EchoCurve",
    "group_signal",
    "ensemble_signal",
    "field_scan",
    "scan_csv",
]

_SCHEMA_VERSION = 1

# Bytes of one Hamiltonian stack.  `echo --g G --n-baths 1 --tau 0:30us:5`
# (2 cores, one BLAS thread) at caps of 1/4/16/64 MiB: g = 5 0.82-0.87 s at
# peaks of 53/56/79/79 MB; g = 6 5.7/5.4/5.1/4.7 s at 100/100/114/185 MB.
_STACK_BYTES = 1 << 22


@dataclass(frozen=True)
class SimulationConfig:
    """Everything an ensemble run needs; immutable and fully seeding."""

    central: object = field(default_factory=P1Center)
    b_field: tuple[float, float, float] = (0.0, 0.0, 72.0)
    n_spins: int = 125
    abundance: float = 0.011
    g: int = 3
    n_baths: int = 20
    tau_grid: tuple[float, ...] = ()
    sequence: PulseProgram = field(default_factory=lambda: expand_preset("hahn"))
    master_seed: int = 0
    min_radius: float = DIAMOND_BOND_NM
    lattice: bool = True
    include_nn: bool = True
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "b_field", tuple(
            float(x) for x in hamiltonians._field_vector(self.b_field)))
        grid = tuple(float(t) for t in self.tau_grid)
        if not all(math.isfinite(t) for t in grid):
            raise ValueError("tau_grid entries must be finite")
        if any(t < 0.0 for t in grid):
            raise ValueError("tau_grid entries must be non-negative")
        if any(t2 < t1 for t1, t2 in zip(grid, grid[1:])):
            raise ValueError("tau_grid must be sorted ascending")
        object.__setattr__(self, "tau_grid", grid)
        if self.n_baths < 1:
            raise ValueError("n_baths must be at least 1")
        if self.g < 1:
            raise ValueError("g must be at least 1")
        bathgen.check_bath_parameters(self.n_spins, self.abundance,
                                      self.min_radius)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _probes(self.central, self.b_field)  # raises if unaddressable

    def describe(self) -> dict:
        """JSON-ready echo of the configuration, the central spin's
        constants (from constants.py) included."""
        central = self.central
        info: dict = {"type": type(central).__name__}
        if isinstance(central, P1Center):
            info.update(m_i=central.m_i, jt_label=central.jt.label,
                        jt_axis=list(central.jt.axis),
                        gamma_e_mhz_per_g=GAMMA_E_MHZ_PER_G,
                        a_par_mhz=A_PAR_MHZ, a_perp_mhz=A_PERP_MHZ,
                        q_mhz=Q_N14_MHZ)
        elif isinstance(central, NVCenter):
            info.update(levels=list(central.levels), d_zfs_mhz=D_NV_MHZ,
                        gamma_e_mhz_per_g=GAMMA_E_MHZ_PER_G)
        else:
            info.update(gamma_e_mhz_per_g=GAMMA_E_MHZ_PER_G)
        return {
            "schema_version": _SCHEMA_VERSION,
            "central": info,
            "b_field_gauss": list(self.b_field),
            "n_spins": self.n_spins,
            "abundance": self.abundance,
            "g": self.g,
            "n_baths": self.n_baths,
            "master_seed": self.master_seed,
            "min_radius_nm": self.min_radius,
            "lattice": self.lattice,
            "include_nn": self.include_nn,
            "sequence": canonical_text(self.sequence),
            "sequence_name": self.sequence.name,
        }


@dataclass(frozen=True)
class EchoCurve:
    """Ensemble-averaged echo signal on a tau grid, carrying its config."""

    tau: tuple[float, ...]
    signal: tuple[float, ...]
    per_bath: tuple[tuple[float, ...], ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        tau = tuple(float(t) for t in self.tau)
        signal = tuple(float(s) for s in self.signal)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "signal", signal)
        if len(tau) != len(signal):
            raise ValueError("tau and signal must have equal length")
        if any(not abs(s) <= 1.0 + 1e-9 for s in signal):
            raise ValueError("signal outside [-1, 1]")
        if self.per_bath is not None:
            pb = tuple(tuple(float(s) for s in row) for row in self.per_bath)
            if any(len(row) != len(tau) for row in pb):
                raise ValueError("per-bath rows must match the tau grid")
            object.__setattr__(self, "per_bath", pb)

    @property
    def tau_us(self) -> tuple[float, ...]:
        return tuple(t * 1e6 for t in self.tau)

    def to_csv(self, include_baths: bool = False) -> str:
        out = io.StringIO()
        header = ["tau_us", "signal"]
        rows = self.per_bath if (include_baths and self.per_bath) else ()
        header += [f"bath_{i:02d}" for i in range(len(rows))]
        out.write(",".join(header) + "\n")
        for k, (t, s) in enumerate(zip(self.tau_us, self.signal)):
            cells = [f"{t:.17g}", f"{s:.17g}"]
            cells += [f"{row[k]:.17g}" for row in rows]
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def to_dict(self) -> dict:
        payload = {
            "metadata": self.metadata,
            "tau_us": list(self.tau_us),
            "signal": list(self.signal),
        }
        if self.per_bath is not None:
            payload["per_bath"] = [list(row) for row in self.per_bath]
        return payload


def scan_csv(curves: list[EchoCurve]) -> str:
    """Long-format CSV (b_gauss, tau_us, signal) for a field scan."""
    out = io.StringIO()
    out.write("b_gauss,tau_us,signal\n")
    for curve in curves:
        b = float(np.linalg.norm(curve.metadata.get("b_field_gauss", (0, 0, 0))))
        for t, s in zip(curve.tau_us, curve.signal):
            out.write(f"{b:.17g},{t:.17g},{s:.17g}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# echo kernel

def _thermal_variants(central):
    """(weight, central) pairs; a thermal nitrogen averages its projections."""
    if isinstance(central, P1Center) and central.m_i is None:
        return [(1.0 / 3.0, replace(central, m_i=m)) for m in (-1, 0, 1)]
    return [(1.0, central)]


def _probed_states(central, b_field) -> tuple:
    """The (a, b) central eigenvectors of central.probed; level_pair raises
    where state mixing leaves the pair unaddressable (a thermal nitrogen
    has no pair)."""
    vc = np.linalg.eigh(central.hamiltonian(b_field))[1]
    return tuple(vc[:, k] for k in hamiltonians.level_pair(central, vc))


def _probes(central, b_field) -> list:
    """_probed_states of each thermal variant of central."""
    return [_probed_states(variant, b_field)
            for _, variant in _thermal_variants(central)]


def _pair_unitary(steps) -> np.ndarray:
    """The rotations among steps, composed on the probed pair (2 x 2)."""
    u = np.eye(2, dtype=complex)
    for step in steps:
        if isinstance(step, Pulse):
            u = two_level_unitary(step.axis, step.angle_rad) @ u
    return u


def _plans(schedules: list[Schedule]) -> list:
    """Schedules grouped by event structure, one propagation plan each.

    A plan is (steps, indices, durations, eta, progression).  steps are
    the events with each interval replaced by the row of durations, a
    (distinct intervals, schedules) array, that holds its length on every
    schedule; intervals of equal length on every schedule share a row.
    eta is the sign normalization from the zero-delay composition on the
    pair, and progression is _progression(durations).  Taus of one
    program share a structure except tau = 0, whose symbolic intervals
    are dropped.
    """
    indices: dict = {}
    for k, schedule in enumerate(schedules):
        steps = tuple(e if isinstance(e, Pulse) else None
                      for e in schedule.events)
        indices.setdefault(steps, []).append(k)
    plans = []
    for steps, index in indices.items():
        lengths = zip(*([e.duration_s for e in schedules[k].events
                         if isinstance(e, Interval)] for k in index))
        rows: dict = {}
        slots = iter([rows.setdefault(row, len(rows)) for row in lengths])
        steps_rows = tuple(next(slots) if step is None else step
                           for step in steps)
        durations = np.array(list(rows)).reshape(len(rows), len(index))
        zero_delay = _pair_unitary(steps)[0, 0]
        eta = -1.0 if 2.0 * abs(zero_delay) ** 2 - 1.0 < -0.99 else 1.0
        plans.append((steps_rows, index, durations, eta,
                      _progression(durations)))
    return plans


def _progression(durations: np.ndarray):
    """Where every row of durations (rows, T) is a progression d_0 + n step
    to within 4 ulp of its largest entry: d_qB (rows, Q, 1) and s step
    (rows, 1, B), B = ceil(sqrt T), so that d_(qB+s) = d_qB + s step.  None
    elsewhere, and where the two are no shorter than a row.
    """
    n = durations.shape[1]
    block = math.isqrt(n - 1) + 1
    if not len(durations) or block + -(-n // block) >= n:
        return None
    step = (durations[:, -1:] - durations[:, :1]) / (n - 1)
    off = np.abs(durations - (durations[:, :1] + step * np.arange(n)))
    if (off.max(axis=1) > 4.0 * np.finfo(float).eps
            * np.abs(durations).max(axis=1)).any():
        return None
    return durations[:, ::block, None], (step * np.arange(block))[:, None, :]


def _phase_table(rate, durations, progression) -> np.ndarray:
    """exp(rate (x) durations), (D, rows, T).  On a progression, the outer
    product of the coarse and fine exponentials: about 2 sqrt(T) exp calls
    a row instead of T, with arguments off by the rounding of s step and
    the grid's deviation from the progression, the order of the direct
    exp's own rounding of rate d (a cumprod of one step drifts with T).
    """
    if progression is None:
        return np.exp(rate[:, None, None] * durations)
    coarse, fine = (np.exp(rate[:, None, None, None] * x) for x in progression)
    table = (coarse * fine).reshape(len(rate), len(durations), -1)
    return table[:, :, :durations.shape[1]]


def _group_curves(w, v, probes, plans, n_schedules: int) -> np.ndarray:
    """S_G of each group of one size, per probed pair, on every schedule.

    (w, v) is the groups' eigen-stack and probes the (a, b) central
    eigenstates of each projection.  Per pair and plan, the rotations
    before the first interval and after the last fold into the initial
    columns kron(U a, 1) and the read-out row kron(a^H U, 1), in the lab
    basis.  Per group, each plan's phase table serves every pair; the
    (D, nb, T) slab takes one GEMM per pulse in between, moved to the
    eigenbasis, and one in-place phase multiply along tau per interval.
    """
    dim, dc = w.shape[1], len(probes[0][0])
    nb = dim // dc
    eye_b = np.eye(nb, dtype=complex)
    spans = []  # steps first to last run on the slab
    for steps, *_ in plans:
        free = [k for k, s in enumerate(steps) if not isinstance(s, Pulse)]
        spans.append((free[0], free[-1] + 1) if free else (len(steps),) * 2)
    inner = {s for (steps, *_), (first, last) in zip(plans, spans)
             for s in steps[first:last] if isinstance(s, Pulse)}
    out = np.empty((len(w), len(probes), n_schedules))
    folded = []
    for a, b in probes:
        pair = np.stack([a, b], axis=1)
        lifted = {s: np.kron(pair @ (_pair_unitary([s]) - np.eye(2))
                             @ pair.conj().T + np.eye(dc), eye_b)
                  for s in inner}
        edges = [(np.kron(pair @ _pair_unitary(steps[:first])[:, :1], eye_b),
                  np.kron(_pair_unitary(steps[last:])[:1] @ pair.conj().T,
                          eye_b))
                 for (steps, *_), (first, last) in zip(plans, spans)]
        folded.append((lifted, edges))
    for wg, vg, curves in zip(w, v, out):
        rate = -2j * np.pi * wg
        vh = vg.conj().T
        phases = [_phase_table(rate, durations, progression)
                  for _, _, durations, _, progression in plans]
        for (lifted, edges), curve in zip(folded, curves):
            rot = {s: vh @ u @ vg for s, u in lifted.items()}
            for (steps, index, _, eta, _), (first, last), (select, read), \
                    phase in zip(plans, spans, edges, phases):
                m = (vh @ select)[:, :, None]
                if first < last:  # the first interval spreads m along tau
                    m = m * phase[:, None, steps[first]]
                for step in steps[first + 1:last]:
                    if isinstance(step, Pulse):
                        m = (rot[step] @ m.reshape(dim, -1)).reshape(m.shape)
                    else:
                        m *= phase[:, None, step]
                amp = ((read @ vg) @ m.reshape(dim, -1)).view(float)
                amp = amp.reshape(nb * nb, -1)  # re, im alternate along tau
                sums = np.einsum("ks,ks->s", amp, amp)
                curve[index] = eta * (2.0 / nb * (sums[::2] + sums[1::2]) - 1.0)
    return out


def _echo(central, bath: Bath, groups, schedules: list[Schedule], b_field,
          **options) -> np.ndarray:
    """Bath signal S_T on every schedule: the product of S_G over groups,
    each a sequence of bath indices.

    With a thermal nitrogen the product is formed per projection and then
    averaged (one physical nitrogen is shared by every group), over the
    groups in their given order.  The groups of one size are assembled and
    diagonalized as stacks, which the projections share; options go to
    build_hamiltonian_stack.
    """
    plans = _plans(schedules)
    variants = _thermal_variants(central)
    probes = _probes(central, b_field)
    dc = len(probes[0][0])
    curves = np.empty((len(groups), len(probes), len(schedules)))
    # largest first, so the largest term table is built before the rest
    for size in sorted({len(group) for group in groups}, reverse=True):
        same = [k for k, group in enumerate(groups) if len(group) == size]
        step = max(1, _STACK_BYTES // (16 * (dc << size) ** 2))
        for index in (same[k:k + step] for k in range(0, len(same), step)):
            idx = np.array([groups[k] for k in index], dtype=np.intp)
            w, v = np.linalg.eigh(hamiltonians.build_hamiltonian_stack(
                central, bath.positions[idx], bath.gammas[idx], b_field,
                **options))
            curves[index] = _group_curves(w, v, probes, plans,
                                          len(schedules))
    return sum(weight * product for (weight, _), product
               in zip(variants, np.prod(curves, axis=0)))


def group_signal(central, group: Bath, schedule: Schedule, b_field, *,
                 include_nn: bool = True, secular_hyperfine: bool = False,
                 hyperfine_scale: float = 1.0) -> float:
    """Echo signal of the central spin coupled to one carbon group."""
    return float(_echo(central, group, [range(len(group))], [schedule],
                       b_field, include_nn=include_nn,
                       secular_hyperfine=secular_hyperfine,
                       hyperfine_scale=hyperfine_scale)[0])


def _bath_curve(central, bath: Bath, partition: Partition,
                schedules: list[Schedule], b_field, *,
                include_nn: bool = True) -> np.ndarray:
    """S_T of one bath on every schedule."""
    if partition.n_spins != len(bath):
        raise ValueError("partition does not cover this bath")
    return _echo(central, bath, partition.groups, schedules, b_field,
                 include_nn=include_nn)


def _make_baths(config: SimulationConfig):
    baths = []
    for index in range(config.n_baths):
        seed = child_seed(config.master_seed, index)
        bath = bathgen.generate_bath(seed, config.n_spins, config.abundance,
                                     config.min_radius,
                                     lattice=config.lattice)
        baths.append((bath, bathgen.cluster_bath(bath, config.g)))
    return baths


def _ensemble_curve(config: SimulationConfig, baths) -> EchoCurve:
    schedules = [pulses.compile_schedule(config.sequence, tau)
                 for tau in config.tau_grid]

    def curve(pair) -> np.ndarray:
        return _bath_curve(config.central, *pair, schedules, config.b_field,
                           include_nn=config.include_nn)

    if config.workers == 1:
        rows = list(map(curve, baths))
    else:
        # only here, so that no other run pays for importing it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(curve, baths))
    per_bath = np.vstack(rows)
    return EchoCurve(tau=config.tau_grid, signal=per_bath.mean(axis=0),
                     per_bath=per_bath, metadata=config.describe())


def ensemble_signal(config: SimulationConfig) -> EchoCurve:
    """Average S_T over n_baths seeded baths; deterministic in master_seed.

    Bath b uses child_seed(master_seed, b), so any bath is replayable in
    isolation.  Worker count changes scheduling only, never the result.
    """
    return _ensemble_curve(config, _make_baths(config))


def field_scan(config: SimulationConfig, b_list) -> list[EchoCurve]:
    """One EchoCurve per field magnitude (G, along z), on shared baths.

    The same seeded baths are reused across fields so rows differ only
    through the field, and each row is bit-identical to a single-field
    run at the same configuration.
    """
    b_values = [float(b) for b in b_list]
    if not b_values:
        raise ValueError("b_list must be non-empty")
    # every field's config checks its probed pair before any bath is built
    configs = [replace(config, b_field=(0.0, 0.0, b)) for b in b_values]
    baths = _make_baths(config)
    return [_ensemble_curve(c, baths) for c in configs]
