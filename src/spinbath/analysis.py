"""Spectroscopy and statistics on top of the dynamics engine.

Transition tables and relative drive strengths of the six-level nitrogen
center, conditional nuclear precession distributions, revival detection
and coherence-time fits of echo curves, and the closed-form ensemble
statistics (neighbor distances, dipolar couplings, concentration from
the instantaneous-diffusion time).

Units: frequencies in Hz unless a name says MHz/kHz; times in seconds;
fields in gauss; distances in nm; densities in nm^-3.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    KAPPA_ID_PPM_US,
    dipole_prefactor_hz,
)
from .dynamics import EchoCurve
from .hamiltonians import (
    JtOrientation,
    P1Params,
    build_p1_hamiltonian,
    build_system_hamiltonian,
    label_levels,
)
from .spinops import CompositeSpace, embed, spin_operators

__all__ = [
    "TransitionRow",
    "TransitionTable",
    "LarmorHistogram",
    "FitResult",
    "transition_table",
    "transition_moment",
    "larmor_distribution",
    "detect_revivals",
    "fit_t2",
    "mean_kth_distance",
    "mean_dipolar_coupling",
    "concentration_from_td",
    "larmor_frequency",
]

_LABEL_THRESHOLD = 0.5     # dominant amplitude^2 above this gets a name
_MANIFOLD_THRESHOLD = 0.75  # electron character below this flags the spin


def _format_label(ms: float, mi: float) -> str:
    ms_txt = "+1/2" if ms > 0 else "-1/2"
    return f"mS={ms_txt},mI={int(round(mi)):+d}"


@dataclass(frozen=True)
class TransitionRow:
    """One resonance line: frequency, endpoint labels, type, drive strength."""

    freq_mhz: float
    from_label: str
    to_label: str
    kind: str
    moment: float
    orientation: str

    def __post_init__(self):
        if self.freq_mhz < 0:
            raise ValueError("transition frequencies are non-negative")
        if self.moment < 0:
            raise ValueError("moments are non-negative")


@dataclass(frozen=True)
class TransitionTable:
    """All pairwise resonance lines of the six-level center at one field."""

    rows: tuple[TransitionRow, ...]
    b_field: tuple[float, float, float]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["freq_mhz", "from", "to", "kind", "moment",
                         "orientation"])
        for r in self.rows:
            writer.writerow([f"{r.freq_mhz:.17g}", r.from_label, r.to_label,
                             r.kind, f"{r.moment:.17g}", r.orientation])
        return out.getvalue()

    def to_json(self) -> str:
        payload = {
            "b_field_gauss": list(self.b_field),
            "rows": [
                {"freq_mhz": r.freq_mhz, "from": r.from_label,
                 "to": r.to_label, "kind": r.kind, "moment": r.moment,
                 "orientation": r.orientation}
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2)


def transition_moment(eigvec_i, eigvec_f, params: P1Params) -> float:
    """|<f| gamma_e S_x + gamma_n I_x |i>| on the six-level center, Hz/G.

    The raw transverse-moment matrix element; divide by the strongest
    electron line's element at the same field for the relative strength
    (transition_table does this).
    """
    vi = np.asarray(eigvec_i, dtype=complex).ravel()
    vf = np.asarray(eigvec_f, dtype=complex).ravel()
    if vi.shape != (6,) or vf.shape != (6,):
        raise ValueError("eigenvectors must live in the six-level space")
    space = CompositeSpace((2, 3))
    sx = embed(spin_operators(0.5).sx, 0, space)
    ix = embed(spin_operators(1.0).sx, 1, space)
    op = params.gamma_e_hz * sx + params.gamma_n14 * ix
    return abs(complex(vf.conj() @ (op @ vi)))


def _classify(label_i, label_f) -> str:
    (ms_i, mi_i), w_i = label_i
    (ms_f, mi_f), w_f = label_f
    if w_i <= _LABEL_THRESHOLD or w_f <= _LABEL_THRESHOLD:
        return "hybridized"
    dms = abs(ms_f - ms_i)
    dmi = abs(round(mi_f) - round(mi_i))
    if dms == 1 and dmi == 0:
        return "electron"
    if dms == 0 and dmi == 1:
        return "nuclear"
    if dms == 0 and dmi == 0:
        return "hybridized"  # same dominant labels: only mixing separates them
    return "double-quantum"


def transition_table(params: P1Params, b_field,
                     orientations=None) -> TransitionTable:
    """All 15 pairwise gaps per bond orientation, labeled and classified.

    Labels come from the dominant product-basis component ("mixed" when
    no component exceeds 1/2); the kind follows the dominant-label
    selection rules, with "hybridized" for any mixed endpoint.  Moments
    are relative to the strongest electron line in the table.
    """
    if orientations is None:
        orientations = [JtOrientation.on_axis(), JtOrientation.off_axis(1),
                        JtOrientation.off_axis(2), JtOrientation.off_axis(3)]
    raw_rows = []
    for jt in orientations:
        h = build_p1_hamiltonian(params, b_field, jt)
        w, v = np.linalg.eigh(h)
        labels = label_levels(v, (2, 3))
        names = []
        for (ms, mi), weight in labels:
            names.append(_format_label(ms, mi)
                         if weight > _LABEL_THRESHOLD else "mixed")
        for i in range(6):
            for j in range(i + 1, 6):
                freq_mhz = (w[j] - w[i]) / 1e6
                kind = _classify(labels[i], labels[j])
                moment = transition_moment(v[:, i], v[:, j], params)
                raw_rows.append((freq_mhz, names[i], names[j], kind, moment,
                                 jt.label))

    electron_moments = [m for _, _, _, kind, m, _ in raw_rows
                        if kind == "electron"]
    scale = max(electron_moments) if electron_moments else \
        max((m for *_, m, _ in raw_rows), default=1.0)
    if scale == 0.0:
        scale = 1.0
    rows = tuple(
        TransitionRow(freq_mhz=f, from_label=a, to_label=b, kind=kind,
                      moment=m / scale, orientation=orient)
        for f, a, b, kind, m, orient in raw_rows
    )
    b_vec = np.atleast_1d(np.asarray(b_field, dtype=float))
    if b_vec.shape == (1,):
        b_vec = np.array([0.0, 0.0, float(b_vec[0])])
    return TransitionTable(rows=rows, b_field=tuple(float(x) for x in b_vec))


# ---------------------------------------------------------------------------
# conditional nuclear precession distribution

@dataclass(frozen=True)
class LarmorHistogram:
    """Per-branch nuclear precession frequencies and a shared histogram.

    One frequency per bath spin per electron branch; spins whose manifold
    assignment involved more than 25% electron-state mixing are listed in
    `flagged`.
    """

    branch_labels: tuple[str, str]
    frequencies: tuple[tuple[float, ...], tuple[float, ...]]
    bin_edges: tuple[float, ...]
    counts: tuple[tuple[int, ...], tuple[int, ...]]
    flagged: tuple[int, ...]
    b_field: tuple[float, float, float]

    def __post_init__(self):
        n0, n1 = (len(f) for f in self.frequencies)
        if n0 != n1:
            raise ValueError("both branches need one entry per bath spin")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("counts must be non-negative")

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("spin_index,branch,freq_hz,flagged\n")
        for b, label in enumerate(self.branch_labels):
            for i, f in enumerate(self.frequencies[b]):
                flag = 1 if i in self.flagged else 0
                out.write(f"{i},{label},{f:.17g},{flag}\n")
        return out.getvalue()

    def to_json(self) -> str:
        payload = {
            "b_field_gauss": list(self.b_field),
            "branches": [
                {"label": label, "frequencies_hz": list(freqs),
                 "counts": list(counts)}
                for label, freqs, counts in zip(self.branch_labels,
                                                self.frequencies, self.counts)
            ],
            "bin_edges_hz": list(self.bin_edges),
            "flagged_spins": list(self.flagged),
        }
        return json.dumps(payload, indent=2)


def larmor_distribution(central, bath, b_field, bins="fd") -> LarmorHistogram:
    """Nuclear splitting of each bath spin, conditioned on the electron branch.

    For every bath spin the central+one-carbon Hamiltonian is
    diagonalized; within each probed electron manifold (selected by
    dominant central-eigenstate character) the two levels' gap is that
    spin's conditional precession frequency.  `bins` is anything
    numpy.histogram_bin_edges accepts; binning is shared by both
    branches.
    """
    if len(bath) == 0:
        raise ValueError("bath must be non-empty")
    hc = central.hamiltonian(b_field)
    wc, vc = np.linalg.eigh(hc)
    ia, ib = central.level_pair(wc, vc)
    branch_states = (vc[:, ia], vc[:, ib])
    labels = _branch_labels(central)
    dc = hc.shape[0]

    freqs: tuple[list[float], list[float]] = ([], [])
    flagged = []
    for index, spin in enumerate(bath):
        h = build_system_hamiltonian(central, [spin], b_field)
        w, v = np.linalg.eigh(h)
        ambiguous = False
        for branch, cvec in enumerate(branch_states):
            # weight of each eigenstate on this central level
            m = v.reshape(dc, 2, len(w))
            overlap = np.einsum("c,cbk->bk", cvec.conj(), m)
            weight = np.abs(overlap[0]) ** 2 + np.abs(overlap[1]) ** 2
            top = np.argsort(weight)[-2:]
            if weight[top].min() < _MANIFOLD_THRESHOLD:
                ambiguous = True
            freqs[branch].append(abs(float(w[top[0]] - w[top[1]])))
        if ambiguous:
            flagged.append(index)

    pooled = np.array(freqs[0] + freqs[1])
    edges = np.histogram_bin_edges(pooled, bins=bins)
    counts = tuple(
        tuple(int(c) for c in np.histogram(np.array(f), bins=edges)[0])
        for f in freqs
    )
    b_vec = np.atleast_1d(np.asarray(b_field, dtype=float))
    if b_vec.shape == (1,):
        b_vec = np.array([0.0, 0.0, float(b_vec[0])])
    return LarmorHistogram(
        branch_labels=labels,
        frequencies=(tuple(freqs[0]), tuple(freqs[1])),
        bin_edges=tuple(float(e) for e in edges),
        counts=counts,
        flagged=tuple(flagged),
        b_field=tuple(float(x) for x in b_vec),
    )


def _branch_labels(central) -> tuple[str, str]:
    levels = getattr(central, "levels", None)
    if levels is not None:
        return tuple(f"mS={lv:+d}" if lv else "mS=0" for lv in levels)
    return ("mS=+1/2", "mS=-1/2")


# ---------------------------------------------------------------------------
# revival detection and coherence fits

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

    def to_dict(self) -> dict:
        return {"t2_s": self.t2, "model": self.model,
                "residual_norm": self.residual_norm,
                "revival_times_s": list(self.revival_times)}


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

    from scipy.optimize import curve_fit  # deferred: slow to import

    t_scale = float(x[-1]) if x[-1] > 0 else expected_period
    popt, _ = curve_fit(decay, x, y, p0=[0.5 * t_scale],
                        bounds=(1e-12, np.inf), maxfev=10000)
    t2 = float(popt[0])
    residual = float(np.linalg.norm(decay(x, t2) - y))
    return FitResult(t2=t2, model=model, residual_norm=residual,
                     revival_times=tuple(revivals))


# ---------------------------------------------------------------------------
# closed-form ensemble statistics

def mean_kth_distance(n: float, k: int) -> float:
    """Mean distance to the kth nearest neighbor in a 3D Poisson gas.

    n is the number density in nm^-3; the result is in nm:
    (4 pi n / 3)^(-1/3) * Gamma(k + 1/3) / Gamma(k).
    """
    if not (math.isfinite(n) and n > 0):
        raise ValueError("density must be positive and finite")
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    prefactor = (4.0 * math.pi * n / 3.0) ** (-1.0 / 3.0)
    return prefactor * math.gamma(k + 1.0 / 3.0) / math.gamma(k)


def mean_dipolar_coupling(r: float, theta: float | None = None, *,
                          angular_factor: float | None = None) -> float:
    """Electron-electron point-dipole coupling at separation r (nm), in kHz.

    Signed: prefactor * (1 - 3 cos^2 theta).  Exactly one of theta
    (radians) or angular_factor (the value of 1 - 3 cos^2 theta, for
    averaged conventions) must be given.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError("separation must be positive and finite")
    if (theta is None) == (angular_factor is None):
        raise ValueError("give exactly one of theta or angular_factor")
    if not math.isfinite(angular_factor if theta is None else theta):
        raise ValueError("theta and angular_factor must be finite")
    if angular_factor is None:
        angular_factor = 1.0 - 3.0 * math.cos(theta) ** 2
    prefactor_hz = dipole_prefactor_hz(GAMMA_E_HZ_PER_G, GAMMA_E_HZ_PER_G, r)
    return prefactor_hz * angular_factor / 1e3


def concentration_from_td(t_d: float) -> float:
    """Defect concentration (ppm) from the instantaneous-diffusion time (s).

    Single-constant linear law [N0] = kappa / T_D with kappa = 14 ppm us,
    calibrated so 70 us maps to 0.2 ppm.
    """
    if not (math.isfinite(t_d) and t_d > 0):
        raise ValueError("t_d must be positive and finite")
    return KAPPA_ID_PPM_US / (t_d * 1e6)


def larmor_frequency(b: float) -> dict:
    """Bare carbon-13 precession: {"freq_hz", "period_s"} at field b (G)."""
    if b < 0:
        raise ValueError("field must be >= 0")
    freq = GAMMA_C13_HZ_PER_G * b
    period = 1.0 / freq if freq > 0 else None
    return {"freq_hz": freq, "period_s": period}
