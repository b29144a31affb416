"""Disjoint-cluster echo dynamics: group signals, bath products, ensembles.

One kernel computes every echo.  It evolves the central spin together
with one carbon group at a time; the groups of one size are assembled
and diagonalized as one (G, D, D) stack, and share their lifted pulses.
The initial state |a><a| (x) 1/2^g (probed central eigenstate, fully
mixed carbons) is carried as nb = 2^g pure-state columns in each group's
eigenbasis, so free evolution is a diagonal phase multiply and each pulse
a small cached matrix.  The whole tau grid runs at once: the schedules
compiled at each tau are grouped by event structure (tau = 0 drops the
symbolic intervals, so it forms its own group), and each structure
propagates one (D, T*nb) slab, one GEMM per pulse and one broadcast phase
multiply per interval with a duration per tau.  Only one group's slab is
held at a time; group_signal is the case of one group and one schedule.
The group signal is

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bathgen, hamiltonians, pulses
from .bathgen import Bath, Partition, child_seed
from .constants import DIAMOND_BOND_NM
from .hamiltonians import NVCenter, P1Center
from .pulses import (
    Interval,
    PulseProgram,
    Rotation,
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

# Bytes of one Hamiltonian stack: a larger one (g = 6, D = 384) falls out
# of cache and assembles slower than one group at a time.
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

    def describe(self) -> dict:
        """JSON-ready echo of the configuration."""
        central = self.central
        info: dict = {"type": type(central).__name__}
        if isinstance(central, P1Center):
            info.update(m_i=central.m_i, jt_label=central.jt.label,
                        jt_axis=list(central.jt.axis),
                        gamma_e_mhz_per_g=central.params.gamma_e,
                        a_par_mhz=central.params.a_par,
                        a_perp_mhz=central.params.a_perp,
                        q_mhz=central.params.q)
        elif isinstance(central, NVCenter):
            info.update(levels=list(central.levels),
                        d_zfs_mhz=central.params.d_zfs,
                        gamma_e_mhz_per_g=central.params.gamma_e)
        else:
            info.update(gamma_e_mhz_per_g=central.gamma_e)
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
        if any(abs(s) > 1.0 + 1e-9 for s in signal):
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

    def to_json(self) -> str:
        import json

        payload = {
            "metadata": self.metadata,
            "tau_us": list(self.tau_us),
            "signal": list(self.signal),
        }
        if self.per_bath is not None:
            payload["per_bath"] = [list(row) for row in self.per_bath]
        return json.dumps(payload, indent=2)


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


def _eta(steps) -> float:
    """Sign normalization from the zero-delay composition on the pair."""
    u = np.eye(2, dtype=complex)
    for step in steps:
        if step is not None:
            u = two_level_unitary(step.axis, np.radians(step.angle_deg)) @ u
    return -1.0 if 2.0 * abs(u[0, 0]) ** 2 - 1.0 < -0.99 else 1.0


def _plans(schedules: list[Schedule]) -> list:
    """Schedules grouped by event structure, one propagation plan each.

    A plan is (steps, indices, durations, eta).  steps are the events with
    each interval replaced by the row of durations, a (distinct intervals,
    schedules) array, that holds its length on every schedule; intervals
    of equal length on every schedule share a row.  eta is the sign
    normalization.  Taus of one program share a structure except tau = 0,
    whose symbolic intervals are dropped.
    """
    indices: dict = {}
    for k, schedule in enumerate(schedules):
        steps = tuple(e if isinstance(e, Rotation) else None
                      for e in schedule.events)
        indices.setdefault(steps, []).append(k)
    plans = []
    for steps, index in indices.items():
        for step in steps:
            if step is not None and step.target != "probe":
                raise ValueError(
                    f"sequence addresses target {step.target!r}, but this "
                    "model evolves only the probed central spin")
        lengths = zip(*([e.duration_s for e in schedules[k].events
                         if isinstance(e, Interval)] for k in index))
        rows: dict = {}
        slots = iter([rows.setdefault(row, len(rows)) for row in lengths])
        steps_rows = tuple(next(slots) if step is None else step
                           for step in steps)
        durations = np.array(list(rows)).reshape(len(rows), len(index))
        plans.append((steps_rows, index, durations, _eta(steps)))
    return plans


def _group_curves(w, v, a, b, plans, n_schedules: int) -> np.ndarray:
    """S_G of each group of one size on every schedule of the plans.

    (w, v) is the groups' eigen-stack and a, b the probed central
    eigenstates; the lifted pulses kron(u_c, 1) and selectors of a are
    built once for the stack.  Per group, in its eigenbasis, rotations
    before the first interval act on the nb initial columns once and those
    after the last fold into the read-out row; in between, the (D, T*nb)
    slab of a plan takes one GEMM per rotation and one broadcast phase
    multiply per interval, with a duration per schedule.
    """
    dim, dc = w.shape[1], len(a)
    nb = dim // dc
    eye_b = np.eye(nb, dtype=complex)
    select = np.kron(a.reshape(dc, 1), eye_b)
    read = np.kron(a.conj().reshape(1, dc), eye_b)
    pair = np.stack([a, b], axis=1)
    lifted = {}
    for step in {s for steps, *_ in plans for s in steps
                 if isinstance(s, Rotation)}:
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
        for steps, index, durations, eta in plans:
            phases = np.exp(rate[:, None, None] * durations)  # (D, rows, T)
            free = [k for k, step in enumerate(steps)
                    if not isinstance(step, Rotation)]
            first, last = (free[0], free[-1] + 1) if free else (len(steps),) * 2
            m, row = m0, row0
            for step in steps[:first]:
                m = rotations[step] @ m
            for step in reversed(steps[last:]):
                row = row @ rotations[step]
            m = np.tile(m, (1, len(index)))
            for step in steps[first:last]:
                if isinstance(step, Rotation):
                    m = rotations[step] @ m
                else:
                    m = (m.reshape(dim, -1, nb)
                         * phases[:, step, :, None]).reshape(dim, -1)
            amp = (row @ m).reshape(nb, -1, nb)
            power = (amp.real ** 2 + amp.imag ** 2).sum(axis=(0, 2))
            curve[index] = eta * (2.0 / nb * power - 1.0)
    return out


def _echo(central, groups, schedules: list[Schedule], b_field,
          **options) -> np.ndarray:
    """Bath signal S_T on every schedule: the product of S_G over groups.

    With a thermal nitrogen the product is formed per projection and then
    averaged (one physical nitrogen is shared by every group), over the
    groups in their given order.  The groups of one size are assembled and
    diagonalized as stacks, which the projections share; options go to
    build_hamiltonian_stack.
    """
    plans = _plans(schedules)
    wc, vc = np.linalg.eigh(central.hamiltonian(b_field))
    pairs = []
    for weight, variant in _thermal_variants(central):
        ia, ib = variant.level_pair(wc, vc)
        pairs.append((weight, vc[:, ia], vc[:, ib]))
    curves = np.empty((len(groups), len(pairs), len(schedules)))
    # largest first, so the largest operator cache is built before the rest
    for size in sorted({len(group) for group in groups}, reverse=True):
        same = [k for k, group in enumerate(groups) if len(group) == size]
        step = max(1, _STACK_BYTES // (16 * (len(wc) << size) ** 2))
        for index in (same[k:k + step] for k in range(0, len(same), step)):
            w, v = np.linalg.eigh(hamiltonians.build_hamiltonian_stack(
                central, [groups[k] for k in index], b_field, **options))
            for p, (_, a, b) in enumerate(pairs):
                curves[index, p] = _group_curves(w, v, a, b, plans,
                                                 len(schedules))
    total = np.zeros(len(schedules))
    for product, (weight, _, _) in zip(np.prod(curves, axis=0), pairs):
        total += weight * product
    return total


def group_signal(central, group, schedule: Schedule, b_field, *,
                 include_nn: bool = True, secular_hyperfine: bool = False,
                 hyperfine_scale: float = 1.0) -> float:
    """Echo signal of the central spin coupled to one carbon group."""
    return float(_echo(central, [list(group)], [schedule], b_field,
                       include_nn=include_nn,
                       secular_hyperfine=secular_hyperfine,
                       hyperfine_scale=hyperfine_scale)[0])


def _bath_curve(central, bath: Bath, partition: Partition,
                schedules: list[Schedule], b_field, *,
                include_nn: bool = True) -> np.ndarray:
    """S_T of one bath on every schedule."""
    if partition.n_spins != len(bath):
        raise ValueError("partition does not cover this bath")
    groups = [[bath.spins[i] for i in grp] for grp in partition]
    return _echo(central, groups, schedules, b_field, include_nn=include_nn)


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
    rows = [None] * len(baths)
    schedules = [pulses.compile_schedule(config.sequence, tau)
                 for tau in config.tau_grid]

    def work(index: int):
        bath, partition = baths[index]
        rows[index] = _bath_curve(config.central, bath, partition, schedules,
                                  config.b_field,
                                  include_nn=config.include_nn)

    if config.workers == 1:
        for index in range(len(baths)):
            work(index)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(work, range(len(baths))))

    per_bath = np.vstack(rows) if rows else np.zeros((0, len(config.tau_grid)))
    signal = per_bath.mean(axis=0) if len(rows) else np.zeros(0)
    return EchoCurve(
        tau=config.tau_grid,
        signal=tuple(float(s) for s in signal),
        per_bath=tuple(tuple(float(v) for v in row) for row in per_bath),
        metadata=config.describe(),
    )


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
    baths = _make_baths(config)
    curves = []
    for b in b_values:
        curves.append(_ensemble_curve(replace(config, b_field=(0.0, 0.0, b)),
                                      baths))
    return curves
