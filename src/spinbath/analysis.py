"""Spectroscopy and statistics on top of the dynamics engine.

Transition tables and relative drive strengths of the six-level nitrogen
center, conditional nuclear precession distributions, and the closed-form
ensemble statistics (neighbor distances, dipolar couplings, concentration
from the instantaneous-diffusion time).

Units: frequencies in Hz unless a name says MHz/kHz; times in seconds;
fields in gauss; distances in nm; densities in nm^-3.  The center's
constants come from constants.py (`spinbath dump-constants`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    GAMMA_N14_HZ_PER_G,
    KAPPA_ID_PPM_US,
    dipole_prefactor_hz,
)
from .dynamics import _csv_text, _eigen_stacks, _levels
from .hamiltonians import (
    _JT_AXES,
    JtOrientation,
    _field_vector,
    _p1_operators,
    build_p1_hamiltonian,
    label_levels,
)

__all__ = [
    "TransitionRow",
    "TransitionTable",
    "LarmorHistogram",
    "transition_table",
    "transition_moment",
    "larmor_distribution",
    "mean_kth_distance",
    "mean_dipolar_coupling",
    "concentration_from_td",
    "larmor_frequency",
]

_LABEL_THRESHOLD = 0.5     # dominant amplitude^2 above this gets a name
_MANIFOLD_THRESHOLD = 0.75  # electron character below this flags the spin
_MAX_BINS = 1 << 20  # most histogram bins: numpy allocates every edge


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
        return _csv_text(
            ["freq_mhz", "from", "to", "kind", "moment", "orientation"],
            [(r.freq_mhz, r.from_label, r.to_label, r.kind, r.moment,
              r.orientation) for r in self.rows])

    def to_dict(self) -> dict:
        return {
            "b_field_gauss": list(self.b_field),
            "rows": [
                {"freq_mhz": r.freq_mhz, "from": r.from_label,
                 "to": r.to_label, "kind": r.kind, "moment": r.moment,
                 "orientation": r.orientation}
                for r in self.rows
            ],
        }


def transition_moment(eigvec_i, eigvec_f) -> float:
    """|<f| gamma_e S_x + gamma_n I_x |i>| on the six-level center, Hz/G.

    The raw transverse-moment matrix element; divide by the strongest
    electron line's element at the same field for the relative strength
    (transition_table does this).
    """
    vi = np.asarray(eigvec_i, dtype=complex).ravel()
    vf = np.asarray(eigvec_f, dtype=complex).ravel()
    if vi.shape != (6,) or vf.shape != (6,):
        raise ValueError("eigenvectors must live in the six-level space")
    (sx, _, _), (ix, _, _) = _p1_operators()
    op = GAMMA_E_HZ_PER_G * sx + GAMMA_N14_HZ_PER_G * ix
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


def transition_table(b_field, orientations=None) -> TransitionTable:
    """All 15 pairwise gaps per bond orientation, labeled and classified.

    orientations is a list of JtOrientation, by default all four.

    Labels come from the dominant product-basis component ("mixed" when
    no component exceeds 1/2); the kind follows the dominant-label
    selection rules, with "hybridized" for any mixed endpoint.  Moments
    are relative to the strongest electron line in the table.
    """
    if orientations is None:
        orientations = [JtOrientation(label) for label in _JT_AXES]
    raw_rows = []
    for jt in orientations:
        h = build_p1_hamiltonian(b_field, jt.axis)
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
                moment = transition_moment(v[:, i], v[:, j])
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
    return TransitionTable(rows=rows, b_field=tuple(
        float(x) for x in _field_vector(b_field)))


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
        return _csv_text(["spin_index", "branch", "freq_hz", "flagged"],
                         ((i, label, f, int(i in self.flagged))
                          for label, freqs in zip(self.branch_labels,
                                                  self.frequencies)
                          for i, f in enumerate(freqs)))

    def to_dict(self) -> dict:
        return {
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


def larmor_distribution(central, bath, b_field,
                        bins="auto") -> LarmorHistogram:
    """Nuclear splitting of each bath spin, conditioned on the electron branch.

    For every bath spin the central+one-carbon Hamiltonian is
    diagonalized (the spins as stacks of one-spin groups, _eigen_stacks);
    within each probed electron manifold (selected by dominant
    central-eigenstate character) the two levels' gap is that spin's
    conditional precession frequency.  `bins`, shared by both branches, is a
    count up to _MAX_BINS or anything else numpy.histogram_bin_edges takes;
    the default "auto" makes at most twice the square-root rule's count, "fd"
    alone hundreds of thousands when a branch is tightly bunched (the NV
    mS=0).  Before any eigen-stack, _admit refuses (ValueError) an empty
    bath, other bins, a thermal nitrogen and an unaddressable pair.
    """
    labels, branch_states = _admit(central, len(bath), b_field, bins)
    freqs = np.empty((2, len(bath)))
    ambiguous = np.zeros(len(bath), dtype=bool)
    for rows, (w, v) in _eigen_stacks(central, bath,
                                      np.arange(len(bath))[:, None], b_field):
        # (spins, central level, carbon level, eigenstate)
        v = v.reshape(len(w), len(branch_states[0]), 2, -1)
        for branch, cvec in enumerate(branch_states):
            # weight of each eigenstate on this central level
            overlap = np.einsum("c,gcbk->gbk", cvec.conj(), v)
            weight = np.abs(overlap[:, 0]) ** 2 + np.abs(overlap[:, 1]) ** 2
            top = np.argsort(weight, axis=1)[:, -2:]
            ambiguous[rows] |= (np.take_along_axis(weight, top, 1).min(axis=1)
                                < _MANIFOLD_THRESHOLD)
            pair = np.take_along_axis(w, top, 1)
            freqs[branch, rows] = np.abs(pair[:, 0] - pair[:, 1])

    edges = np.histogram_bin_edges(freqs, bins=bins)
    return LarmorHistogram(
        branch_labels=labels,
        frequencies=tuple(tuple(f.tolist()) for f in freqs),
        bin_edges=tuple(edges.tolist()),
        counts=tuple(tuple(np.histogram(f, bins=edges)[0].tolist())
                     for f in freqs),
        flagged=tuple(np.flatnonzero(ambiguous).tolist()),
        b_field=tuple(float(x) for x in _field_vector(b_field)),
    )


def _admit(central, n_spins: int, b_field, bins) -> tuple:
    """larmor_distribution's checks, by spin count: (labels, pair states)."""
    if n_spins < 1:
        raise ValueError("bath must be non-empty")
    if isinstance(bins, (int, np.integer)) and bins > _MAX_BINS:
        raise ValueError(f"bin count must be at most {_MAX_BINS}, not {bins}")
    np.histogram_bin_edges([0.0, 1.0], bins=bins)  # raises as on the spins'
    # a thermal nitrogen has no branch labels, an unaddressable pair no levels
    return _branch_labels(central), _levels(central, b_field)[0][0][1]


def _branch_labels(central) -> tuple[str, str]:
    """'mS=...' of the electron projection of each level of central.probed."""
    return tuple("mS=0" if m == 0 else f"mS={m:+g}" if m == int(m)
                 else f"mS={2 * m:+g}/2" for m, *_ in central.probed)


# ---------------------------------------------------------------------------
# closed-form ensemble statistics

def mean_kth_distance(n: float, k: int) -> float:
    """Mean distance to the kth nearest neighbor in a 3D Poisson gas.

    n is the number density in nm^-3; the result is in nm:
    (4 pi n / 3)^(-1/3) * Gamma(k + 1/3) / Gamma(k).
    """
    n = float(n)  # a numpy scalar would overflow below with a warning
    if not (n > 0 and math.isfinite(4.0 * math.pi * n / 3.0)):  # NaN too
        raise ValueError("density must be positive and finite, with a finite"
                         " 4 pi n / 3")
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    prefactor = (4.0 * math.pi * n / 3.0) ** (-1.0 / 3.0)
    # Gamma(k) overflows past k = 171, the product sooner
    r_k = (prefactor * math.gamma(k + 1.0 / 3.0) / math.gamma(k) if k <= 171
           else math.inf)
    if not math.isfinite(r_k):
        raise ValueError("k is too large: the mean distance overflows a float")
    return r_k


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
