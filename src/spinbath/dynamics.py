"""Disjoint-cluster echo dynamics: group signals, bath products, ensembles.

One kernel computes every echo.  It evolves the central spin together
with each carbon group; the groups of one size are assembled and
diagonalized as one (G, D, D) stack.  The initial state
|a><a| (x) 1/2^g (probed central eigenstate, fully mixed carbons) is
carried as nb = 2^g pure-state columns.  The taus on which the same runs
of adjacent delays of the program vanish share a plan (_plans, one walk;
tau = 0 drops the symbolic runs); the pulses before its first run and
after its last fold into those columns and the read-out row, and a
stack's chunks of G groups each propagate a (G, D, nb, T) slab over the
tau grid in the eigenbasis: one stacked GEMM per pulse in between and one
in-place phase multiply along tau per run, where past T = D the first run
and the pulse after it are one GEMM.  A plan with no run needs no
eigenbasis: V V^H = 1, so every group reads read @ select.  group_signal
is the one group, one tau case.  It gives

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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bathgen, hamiltonians, pulses
from .bathgen import Bath, child_seed
from .constants import (
    A_PAR_MHZ,
    A_PERP_MHZ,
    C13_ABUNDANCE,
    D_NV_MHZ,
    DIAMOND_BOND_NM,
    GAMMA_E_MHZ_PER_G,
    Q_N14_MHZ,
    as_count,
    as_quantity,
)
from .hamiltonians import NVCenter, P1Center
from .pulses import (
    Pulse,
    PulseProgram,
    canonical_text,
    expand_preset,
    two_level_unitary,
)

__all__ = [
    "SimulationConfig",
    "EchoCurve",
    "group_signal",
    "ensemble_signal",
    "field_scan",
    "scan_csv",
]

_SCHEMA_VERSION = 2

# Bytes of one Hamiltonian stack.  `echo --g G --n-baths 1 --tau 0:30us:5`
# (2 cores, one BLAS thread) at caps of 1/4/16/64 MiB: g = 5 0.82-0.87 s at
# peaks of 53/56/79/79 MB; g = 6 5.7/5.4/5.1/4.7 s at 100/100/114/185 MB.
_STACK_BYTES = 1 << 22

# Bytes of a chunk's (G, D, max(D, nb T)) arrays in _group_curves: 21 NV
# groups (D = 24) at 4 taus, 3.1 ms against 9.1 one at a time; one P1 group
# (D = 48) at 150.  At 2 MiB glibc unmaps each chunk: `echo --n-baths 2`
# took 39,558 minor faults, not 7,304; at 1 MiB the NV's RSS rose 1.3 MB.
_SLAB_BYTES = 1 << 18

# Largest phase a run may reach: 2 pi x the central spin's spectral width x
# the schedule's total evolution time.  fp64 rounds a phase x to within
# x 2^-53: 1e-6 rad at 2^33 rad, the kernel's bound against the closed-form
# echo.  The NV reaches 1.2e6 rad on the default grid, 7.4e7 under CPMG-64.
_MAX_PHASE_RAD = 2.0 ** 33

# Most bytes of one group's D x D Hamiltonian or (D, 2^g, T) slab: the P1
# takes 944 MB at g = 8 and 150 taus, and 9 GiB at g = 12 for H alone.
_MAX_GROUP_BYTES = 1 << 31

# Most pulses and delays a program may unroll to: _plans walks each once.
_MAX_ITEMS = 1 << 20


def _sci(n: int) -> str:
    """An integer to 3 significant digits, or its power of 2 where no
    float holds it."""
    return f"{n:.3g}" if n.bit_length() < 1000 else f"2^{n.bit_length() - 1}"


def _unrolled_length(items) -> int:
    """Pulses and delays of program items, each repeat count x its block."""
    return sum(item.count * _unrolled_length(item.block)
               if isinstance(item, pulses.Repeat) else 1 for item in items)


def _evolution_time(items, tau: float) -> float:
    """Total free evolution (s) of program items at tau: each delay, and
    each repeat count times its block."""
    return sum(item.duration_s(tau) if isinstance(item, pulses.Delay)
               else item.count * _evolution_time(item.block, tau)
               if isinstance(item, pulses.Repeat) else 0.0 for item in items)


def _check_phase(width: float, total: float) -> None:
    """Refuse a phase 2 pi width (Hz) total (s) past _MAX_PHASE_RAD."""
    if not 2.0 * math.pi * width * total <= _MAX_PHASE_RAD:  # NaN too
        raise ValueError(
            f"the schedule evolves for {total:.3g} s at the largest tau: at"
            f" a spectral width of {width:.3g} Hz its phase passes"
            f" {_MAX_PHASE_RAD:.3g} rad, where fp64 no longer resolves it"
            " to 1e-6 rad")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything an ensemble run needs; immutable and fully seeding."""

    central: object = field(default_factory=P1Center)
    b_field: tuple[float, float, float] = (0.0, 0.0, 72.0)
    n_spins: int = 125
    abundance: float = C13_ABUNDANCE
    g: int = 3
    n_baths: int = 20
    tau_grid: tuple[float, ...] = ()
    sequence: PulseProgram = field(default_factory=lambda: expand_preset("hahn"))
    master_seed: int = 0
    min_radius: float = DIAMOND_BOND_NM
    include_nn: bool = True
    workers: int = 1
    # derived at b_field: each projection's weight and probed pair (_at_field)
    probes: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b_field", tuple(
            float(x) for x in hamiltonians._field_vector(self.b_field)))
        grid = tuple(float(t) for t in self.tau_grid)
        if not all(0.0 <= t < math.inf for t in grid):  # NaN too
            raise ValueError("tau_grid entries must be non-negative and finite")
        if any(t2 < t1 for t1, t2 in zip(grid, grid[1:])):
            raise ValueError("tau_grid must be sorted ascending")
        object.__setattr__(self, "tau_grid", grid)
        for name, least in (("n_baths", 1), ("g", 1), ("workers", 1),
                            ("master_seed", -math.inf), ("n_spins", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name,
                                                    least))
        _, abundance, min_radius = bathgen.check_bath_parameters(
            self.n_spins, self.abundance, self.min_radius)
        object.__setattr__(self, "abundance", abundance)
        object.__setattr__(self, "min_radius", min_radius)
        # a group holds at most g spins, and no more than the bath
        g = min(self.g, self.n_spins)
        dim = math.prod(self.central.dims) << g
        size = 16 * dim * max(dim, (1 << g) * len(grid))
        if size > _MAX_GROUP_BYTES:
            raise ValueError(
                f"a group of g = {g} spins has dimension D = {_sci(dim)}: with"
                f" T = {len(grid)} taus its Hamiltonian or slab takes"
                f" {_sci(size)} bytes, past the {_MAX_GROUP_BYTES} a group may"
                " take; lower g or the tau count")
        length = _unrolled_length(self.sequence.items)
        if length > _MAX_ITEMS:
            raise ValueError(f"the program unrolls to {_sci(length)} pulses"
                             f" and delays, past the {_MAX_ITEMS} allowed")
        object.__setattr__(self, "probes", _at_field(self, self.b_field)[1])

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
        rows = self.per_bath if (include_baths and self.per_bath) else ()
        return _csv_text(
            ["tau_us", "signal", *(f"bath_{i:02d}" for i in range(len(rows)))],
            zip(self.tau_us, self.signal, *rows))

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
    rows = []
    for curve in curves:
        b = float(np.linalg.norm(curve.metadata.get("b_field_gauss", (0, 0, 0))))
        rows += [(b, t, s) for t, s in zip(curve.tau_us, curve.signal)]
    return _csv_text(["b_gauss", "tau_us", "signal"], rows)


def _csv_text(header, rows) -> str:
    """The CSVs' text: the header's names, then one line per row, a float
    cell at 17 significant digits and any other as its str, quoted as
    csv.writer quotes it where it holds a comma, a quote or a newline."""
    def cell(c) -> str:
        if isinstance(c, float):
            return f"{c:.17g}"
        text = str(c)
        if "," in text or '"' in text or "\n" in text:
            text = '"' + text.replace('"', '""') + '"'
        return text
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


# ---------------------------------------------------------------------------
# echo kernel

def _levels(central, b_field) -> tuple:
    """(probes, width) of central at b_field, from one eigh: per projection
    (a thermal nitrogen averages its three) its weight and the (a, b)
    eigenvectors of its probed pair, and the spectral width in Hz."""
    w, vc = np.linalg.eigh(central.hamiltonian(b_field))
    variants = ([(1.0 / 3.0, replace(central, m_i=m)) for m in (-1, 0, 1)]
                if isinstance(central, P1Center) and central.m_i is None
                else [(1.0, central)])
    probes = tuple((weight, tuple(vc[:, k] for k in
                                  hamiltonians.level_pair(variant, vc)))
                   for weight, variant in variants)
    return probes, float(w[-1]) - float(w[0])  # inf, not a warning


def _at_field(config, b_field) -> tuple:
    """(b_field, probes) of config's run at b_field, by the field's checks:
    its vector, the probed pair (_levels, which refuses an unaddressable one)
    and the phase at the largest tau, the sorted grid's last.  config's own
    field (repr tells -0.0 from 0.0) keeps config's probes."""
    b_field = tuple(float(x) for x in hamiltonians._field_vector(b_field))
    if config.probes is not None and repr(b_field) == repr(config.b_field):
        return b_field, config.probes
    probes, width = _levels(config.central, b_field)
    _check_phase(width, _evolution_time(config.sequence.items,
                                        (config.tau_grid or (0.0,))[-1]))
    return b_field, probes


def _pair_unitary(steps) -> np.ndarray:
    """The rotations among steps, composed on the probed pair (2 x 2)."""
    u = np.eye(2, dtype=complex)
    for step in steps:
        if isinstance(step, Pulse):
            u = two_level_unitary(step.axis, step.angle_rad) @ u
    return u


def _plans(program: PulseProgram, grid) -> tuple:
    """(eta, plans) of program on the tau grid, from one walk.  eta is the
    sign normalization from the zero-delay composition on the pair.  plans
    holds one (steps, indices, durations, progression, span) per set of
    taus on which the same runs of delays (pulses._runs) vanish, as the
    symbolic ones do at tau = 0.  steps are the pulses and other runs in
    order, a run as its row of durations (rows, taus): its length on each
    tau, summed as compile_schedule sums it; runs of equal length share a
    row.  progression is _progression(durations), and span the (first,
    last) steps that run on the slab, from the first run to the last.
    """
    tau = np.asarray(grid, dtype=float)
    slots: dict = {}  # each distinct run, by its Delays, to its slot
    events = [e if isinstance(e, Pulse) else slots.setdefault(e, len(slots))
              for e in pulses._runs(program.items)]
    lengths = np.empty((len(slots), len(tau)))
    for row, run in zip(lengths, slots):
        row[:] = pulses._run_length(run, tau)
    taus: dict = {}  # which runs last (do not vanish), to the taus of it
    for k, live in enumerate(map(bytes, lengths.T > 0.0)):
        taus.setdefault(live, []).append(k)
    zero_delay = _pair_unitary(events)[0, 0]
    eta = -1.0 if 2.0 * abs(zero_delay) ** 2 - 1.0 < -0.99 else 1.0
    plans = []
    for index in taus.values():
        part = lengths[:, index]
        rows: dict = {}  # the bytes of each distinct row to its number
        row_of = {r: rows.setdefault(part[r].tobytes(), len(rows))
                  for r in range(len(part)) if part[r, 0] > 0.0}
        steps = tuple(e if isinstance(e, Pulse) else row_of[e]
                      for e in events if isinstance(e, Pulse) or e in row_of)
        # one run of each row, in row order
        durations = part[list({n: r for r, n in row_of.items()}.values())]
        free = [k for k, s in enumerate(steps) if not isinstance(s, Pulse)]
        span = (free[0], free[-1] + 1) if free else (len(steps),) * 2
        plans.append((steps, np.array(index), durations,
                      _progression(durations), span))
    return eta, plans


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
    """exp(rate (x) durations), (..., D, rows, T) for rate (..., D).  On a
    progression, the outer product of coarse and fine exponentials: about
    2 sqrt(T) exp calls a row, not T, with arguments off by the rounding of
    s step and the grid's deviation from the progression, the order of the
    direct exp's own rounding of rate d (a cumprod of one step drifts).
    """
    if progression is None:
        return np.exp(rate[..., None, None] * durations)
    coarse, fine = (np.exp(rate[..., None, None, None] * x) for x in progression)
    table = (coarse * fine).reshape(*rate.shape, len(durations), -1)
    return table[..., :durations.shape[1]]


class _Setup:
    """An echo set up once per run and field, shared read-only by every
    bath, stack and worker thread: central at b_field, the weights of its
    probes (_levels), the sign and plans of the run's program on its tau
    grid (planned, from _plans) and, per Hilbert dimension D of the given
    group sizes, each probed pair's folded pulses (_group_curves).
    """

    def __init__(self, central, b_field, probes, planned, sizes,
                 include_nn=True):
        self.central, self.b_field = central, b_field
        self.include_nn = include_nn
        self.weights = [weight for weight, _ in probes]
        self.eta, self.plans = planned
        self.n_taus = sum(len(p[1]) for p in self.plans)
        # the longest total evolution of a tau: each run at its longest
        self.longest = max((sum(float(d[s].max()) for s in steps
                                if not isinstance(s, Pulse))
                            for steps, _, d, *_ in self.plans), default=0.0)
        dc = math.prod(central.dims)
        inner = {s for steps, *_, (first, last) in self.plans
                 for s in steps[first:last] if isinstance(s, Pulse)}
        self.folded = {dc << size: [] for size in sizes}
        for dim, folded in self.folded.items():
            eye_b = np.eye(dim // dc, dtype=complex)
            for _, (a, b) in probes:
                pair = np.stack([a, b], axis=1)
                lifted = {s: np.kron(pair @ (_pair_unitary([s]) - np.eye(2))
                                     @ pair.conj().T + np.eye(dc), eye_b)
                          for s in inner}
                edges = [(np.kron(pair @ _pair_unitary(steps[:first])[:, :1],
                                  eye_b),
                          np.kron(_pair_unitary(steps[last:])[:1]
                                  @ pair.conj().T, eye_b))
                         for steps, *_, (first, last) in self.plans]
                folded.append((lifted, edges))


def _group_curves(w, v, setup: _Setup) -> np.ndarray:
    """S_G of each group of one size, per probed pair, on every tau.

    (w, v) is the groups' eigen-stack.  Per pair and plan, the rotations
    before the first interval and after the last are folded into the
    initial columns kron(U a, 1) and the read-out row kron(a^H U, 1), and
    those in between lifted to kron(U_c, 1), in the lab basis (setup).  Per
    chunk of G groups within _SLAB_BYTES, each plan's phase table serves
    every pair; the (G, D, nb, T) slab takes one stacked GEMM per pulse in
    between, moved to the eigenbasis, and one phase multiply per interval.
    Where the plan's T taus outnumber D and a pulse follows the first
    interval, W[i, b, j] = rot[i, j] m[j, b] (D nb x D, smaller than the
    slab) times the first interval's (D, T) phases is the slab after that
    pulse, so the first interval's slab is never written.  A plan with no
    interval (tau = 0 of a symbolic program) takes read @ select in the lab
    basis, the same for every group since V V^H = 1.
    """
    dim = w.shape[1]
    folded = setup.folded[dim]
    nb = dim // math.prod(setup.central.dims)
    out = np.empty((len(w), len(folded), setup.n_taus))
    chunk = max(1, _SLAB_BYTES // (16 * dim * max(dim, nb * setup.n_taus)))
    for start in range(0, len(w), chunk):
        wg, vg, curves = (x[start:start + chunk] for x in (w, v, out))
        n = len(wg)
        rate, vh = -2j * np.pi * wg, vg.conj().transpose(0, 2, 1)
        phases = [_phase_table(rate, durations, progression)
                  for _, _, durations, progression, _ in setup.plans]
        for p, (lifted, edges) in enumerate(folded):
            rot = {s: vh @ u @ vg for s, u in lifted.items()}
            for (steps, index, *_, (first, last)), (select, read), \
                    phase in zip(setup.plans, edges, phases):
                if first == last:  # no run: V V^H = 1 leaves read @ select
                    amp = (read @ select).view(float).ravel()
                    curves[:, p, index] = amp @ amp
                    continue
                m, spread = vh @ select, phase[:, :, steps[first]]
                if first + 1 < last and len(index) > dim:  # W @ phases
                    m = rot[steps[first + 1]][:, :, None] * m.transpose(
                        0, 2, 1)[:, None]
                    m = (m.reshape(n, -1, dim) @ spread).reshape(
                        n, dim, nb, -1)
                    first += 1
                else:  # the first interval spreads m along tau
                    m = m[..., None] * spread[:, :, None]
                for step in steps[first + 1:last]:
                    if isinstance(step, Pulse):
                        m = (rot[step] @ m.reshape(n, dim, -1)).reshape(m.shape)
                    else:
                        m *= phase[:, :, None, step]
                amp = ((read @ vg) @ m.reshape(n, dim, -1)).view(float)
                amp = amp.reshape(n, nb * nb, -1)  # re, im alternate along tau
                sums = np.einsum("gks,gks->gs", amp, amp)
                curves[:, p, index] = sums[:, ::2] + sums[:, 1::2]
    return setup.eta * (2.0 / nb * out - 1.0)  # sign and offset, all chunks


def _eigen_stacks(central, bath: Bath, index, b_field, include_nn=True):
    """(rows, (w, v)) per stack of at most _STACK_BYTES, in order: the
    eigen-stack of the groups index[rows], index (G, k) of bath indices."""
    dim = math.prod(central.dims) << index.shape[1]
    step = max(1, _STACK_BYTES // (16 * dim ** 2))
    for start in range(0, len(index), step):
        rows = slice(start, start + step)
        yield rows, np.linalg.eigh(hamiltonians.build_hamiltonian_stack(
            central, bath.positions[index[rows]], bath.gammas[index[rows]],
            b_field, include_nn=include_nn))


def _echo(setup: _Setup, bath: Bath, groups) -> np.ndarray:
    """Bath signal S_T on every tau of setup: the product of S_G over
    groups, each a sequence of bath indices.

    With a thermal nitrogen the product is formed per projection and then
    averaged (one physical nitrogen is shared by every group), over the
    groups in their given order.  The groups of one size are assembled and
    diagonalized as stacks (_eigen_stacks), which the projections share.
    """
    curves = np.empty((len(groups), len(setup.weights), setup.n_taus))
    sizes = np.array([len(group) for group in groups])
    # largest first, so the largest term table is built before the rest
    for size in sorted(set(sizes.tolist()), reverse=True):
        same = np.flatnonzero(sizes == size)
        index = np.array([groups[k] for k in same], dtype=np.intp)
        for rows, (w, v) in _eigen_stacks(setup.central, bath, index,
                                          setup.b_field,
                                          include_nn=setup.include_nn):
            # the carbons widen the central's width; a span from 0 bounds 2 pi w
            _check_phase(float(w.max(initial=0.0))
                         - float(w.min(initial=0.0)), setup.longest)
            curves[same[rows]] = _group_curves(w, v, setup)
    return sum(weight * product for weight, product
               in zip(setup.weights, np.prod(curves, axis=0)))


def group_signal(central, group: Bath, program: PulseProgram, tau: float,
                 b_field, *, include_nn: bool = True) -> float:
    """Echo signal of the central spin coupled to one carbon group under
    program at one tau (s), admitted as a SimulationConfig of one tau and the
    group's size: it refuses (ValueError) what that run refuses, the tau, the
    field, the pair, the program's length, the group's bytes and the phase."""
    config = SimulationConfig(central=central, b_field=b_field, tau_grid=(tau,),
                              n_spins=len(group), g=max(1, len(group)),
                              sequence=program, include_nn=include_nn)
    setup = _Setup(central, config.b_field, config.probes,
                   _plans(program, config.tau_grid), [len(group)], include_nn)
    return float(_echo(setup, group, [range(len(group))])[0])


def _make_bath(config: SimulationConfig, index: int):
    """Bath index of config's ensemble and its partition."""
    bath = bathgen.generate_bath(child_seed(config.master_seed, index),
                                 config.n_spins, config.abundance,
                                 config.min_radius)
    return bath, bathgen.cluster_bath(bath, config.g)


def _ensemble_curves(config: SimulationConfig, fields) -> list[EchoCurve]:
    """config's ensemble at each of fields, a (b_field, probes) of
    _at_field, planned once and set up once per field.  Each bath index,
    serially or on one pool of config.workers threads, builds its bath and
    computes its row at every field, so a worker holds one bath."""
    planned = _plans(config.sequence, config.tau_grid)
    # a group holds at most g spins, and no more than the bath
    sizes = range(1, min(config.g, config.n_spins) + 1)
    setups = [_Setup(config.central, *at, planned, sizes, config.include_nn)
              for at in fields]

    def rows(index: int) -> list:
        bath, partition = _make_bath(config, index)
        return [_echo(setup, bath, partition.groups) for setup in setups]

    if config.workers == 1:
        per_bath = list(map(rows, range(config.n_baths)))
    else:
        # only here, so that no other run pays for importing it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            per_bath = list(pool.map(rows, range(config.n_baths)))
    # each field's rows as one contiguous (n_baths, T) block, so that its
    # mean sums as a single-field run's does
    return [EchoCurve(tau=config.tau_grid, signal=block.mean(axis=0),
                      per_bath=block, metadata={**config.describe(),
                                                "b_field_gauss": list(b)})
            for (b, _), block in zip(fields, map(np.vstack, zip(*per_bath)))]


def ensemble_signal(config: SimulationConfig) -> EchoCurve:
    """Average S_T over n_baths seeded baths; deterministic in master_seed.

    Bath b uses child_seed(master_seed, b), so any bath is replayable in
    isolation.  Worker count changes scheduling only, never the result.
    """
    return _ensemble_curves(config, [(config.b_field, config.probes)])[0]


def _magnitudes(b_list) -> list[float]:
    """A scan's fields (G, along z), each by the field rule and ≥ 0, as
    scan_csv writes a field's norm; -0.0 passes."""
    b_values = [float(b) for b in b_list]
    if not b_values:
        raise ValueError("field list must be non-empty")
    for b in b_values:
        hamiltonians._field_vector(b)
        as_quantity(b, "field must be finite and ≥ 0", 0.0)
    return b_values


def field_scan(config: SimulationConfig, b_list) -> list[EchoCurve]:
    """One EchoCurve per field of b_list (_magnitudes), each bit-identical
    to a single-field run at the same configuration.  Each worker builds
    one bath and computes its row at every field, so a scan holds one bath
    per worker, not n_baths."""
    # every field's probed pair and phase are checked before any bath is built
    return _ensemble_curves(config, [_at_field(config, b)
                                     for b in _magnitudes(b_list)])
