import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import spinbath.analysis as analysis
import spinbath.dynamics as dynamics
from oracles import (FitResult, detect_revivals, fit_t2, fit_to_dict,
                     larmor_by_spin)
from spinbath.analysis import (
    LarmorHistogram,
    TransitionRow,
    concentration_from_td,
    larmor_distribution,
    larmor_frequency,
    mean_dipolar_coupling,
    mean_kth_distance,
    transition_moment,
    transition_table,
)
from spinbath.bathgen import Bath, generate_bath
from spinbath.constants import (
    DIAMOND_BOND_NM,
    GAMMA_C13_HZ_PER_G,
    GAMMA_N14_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    ppm_to_density_nm3,
)
from spinbath.dynamics import EchoCurve
from spinbath.hamiltonians import (
    BareElectron,
    JtOrientation,
    NVCenter,
    P1Center,
    build_p1_hamiltonian,
)


# --- transition spectroscopy -------------------------------------------------

def test_transition_table_covers_all_orientations():
    table = transition_table(72.0)
    assert len(table) == 4 * 15
    assert {r.orientation for r in table} == {
        "on-axis", "off-axis-1", "off-axis-2", "off-axis-3"}
    assert all(r.freq_mhz >= 0 for r in table)
    assert all(r.moment >= 0 for r in table)


def test_off_axis_resonances_at_72_gauss():
    table = transition_table(72.0, [JtOrientation.off_axis(1)])
    electron = [r.freq_mhz for r in table if r.kind == "electron"]
    nuclear = [r.freq_mhz for r in table if r.kind == "nuclear"]
    assert min(abs(f - 144.0) for f in electron) <= 2.0
    assert min(abs(f - 68.0) for f in nuclear) <= 2.0


def test_nuclear_resonance_at_32_gauss():
    table = transition_table(32.0, [JtOrientation.off_axis(1)])
    nuclear = [r.freq_mhz for r in table if r.kind == "nuclear"]
    assert min(abs(f - 90.0) for f in nuclear) <= 2.0


def test_azimuthal_orientations_share_a_spectrum():
    # with the field along z the three tetrahedral bonds differ only by
    # azimuth, so their line positions coincide
    t1 = transition_table(72.0, [JtOrientation.off_axis(1)])
    t2 = transition_table(72.0, [JtOrientation.off_axis(2)])
    f1 = sorted(r.freq_mhz for r in t1)
    f2 = sorted(r.freq_mhz for r in t2)
    assert f1 == pytest.approx(f2, abs=1e-6)


def test_moment_normalization_and_scale():
    table = transition_table(72.0)
    electron = [r.moment for r in table if r.kind == "electron"]
    assert max(electron) == pytest.approx(1.0, abs=1e-12)
    assert all(m <= 1.0 + 1e-9 for m in electron)
    # at 72 G the nuclear lines borrow electron character through the
    # hyperfine mixing: strictly between the bare nuclear limit and the
    # electron lines
    nuclear = [r.moment for r in table if r.kind == "nuclear"]
    assert nuclear
    bare_limit = GAMMA_N14_HZ_PER_G / abs(GAMMA_E_HZ_PER_G)
    assert all(2.0 * bare_limit < m < 0.9 for m in nuclear)


def test_moment_of_unmixed_states_is_the_gyromagnetic_ratio():
    # product basis states with no mixing: the nuclear/electron moment
    # ratio collapses to (gamma_n / gamma_e) * sqrt(2), the sqrt(2) being
    # the spin-1 ladder element
    basis = np.eye(6)
    # slots: |mS, mI> with mS in (+1/2, -1/2), mI in (+1, 0, -1)
    up0, up_m1, dn0 = basis[:, 1], basis[:, 2], basis[:, 4]
    m_nuc = transition_moment(up0, up_m1)
    m_el = transition_moment(up0, dn0)
    assert m_nuc / m_el == pytest.approx(
        math.sqrt(2.0) * GAMMA_N14_HZ_PER_G / abs(GAMMA_E_HZ_PER_G), rel=1e-12)
    assert m_nuc / m_el == pytest.approx(1.1e-4, rel=0.5)


def test_transition_moment_raw_units():
    h = build_p1_hamiltonian(72.0, JtOrientation("on-axis").axis)
    w, v = np.linalg.eigh(h)
    m = transition_moment(v[:, 0], v[:, 1])
    assert m >= 0
    with pytest.raises(ValueError):
        transition_moment(np.ones(3), np.ones(3))


def test_labels_name_both_projections():
    table = transition_table(72.0, [JtOrientation("on-axis")])
    labels = {r.from_label for r in table} | {r.to_label for r in table}
    named = {lb for lb in labels if lb != "mixed"}
    assert named <= {f"mS={s},mI={m:+d}"
                     for s in ("+1/2", "-1/2") for m in (-1, 0, 1)}
    electron_rows = [r for r in table if r.kind == "electron"]
    for r in electron_rows:
        ms = {r.from_label.split(",")[0], r.to_label.split(",")[0]}
        mi = {r.from_label.split(",")[1], r.to_label.split(",")[1]}
        assert ms == {"mS=+1/2", "mS=-1/2"}
        assert len(mi) == 1


def test_transition_row_validation():
    with pytest.raises(ValueError):
        TransitionRow(freq_mhz=-1.0, from_label="a", to_label="b",
                      kind="electron", moment=0.5, orientation="on-axis")
    with pytest.raises(ValueError):
        TransitionRow(freq_mhz=1.0, from_label="a", to_label="b",
                      kind="electron", moment=-0.5, orientation="on-axis")


def test_transition_table_serialization_round_trip():
    table = transition_table(72.0, [JtOrientation.off_axis(1)])
    rows = list(csv.DictReader(io.StringIO(table.to_csv())))
    assert len(rows) == len(table)
    for parsed, row in zip(rows, table.rows):
        # the labels contain commas, so this only works with real quoting
        assert parsed["from"] == row.from_label
        assert float(parsed["freq_mhz"]) == pytest.approx(row.freq_mhz)
    payload = json.loads(json.dumps(table.to_dict()))
    assert payload["b_field_gauss"] == [0.0, 0.0, 72.0]
    assert len(payload["rows"]) == len(table)


def _csv_writer_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_csv_text_quotes_as_csv_writer_does():
    header = ["plain", "a,b", 'say "hi"', "two\nlines"]
    rows = [[1.5, "x,y", '"', "\n"], [-0.0, 'a "b", c', "", 7]]
    expect = _csv_writer_text(
        [header, *([f"{c:.17g}" if isinstance(c, float) else c for c in row]
                   for row in rows)])
    assert dynamics._csv_text(header, rows) == expect
    for b in (0.0, 32.0, 72.0, 1000.0):
        table = transition_table(b)
        assert table.to_csv() == _csv_writer_text(
            [["freq_mhz", "from", "to", "kind", "moment", "orientation"],
             *([f"{r.freq_mhz:.17g}", r.from_label, r.to_label, r.kind,
                f"{r.moment:.17g}", r.orientation] for r in table.rows)])


# --- conditional precession distribution -------------------------------------

def test_distant_spin_precesses_at_the_bare_rate():
    bare = GAMMA_C13_HZ_PER_G * 72.0
    bath = Bath([(30.0, 0.0, 40.0)])  # 50 nm
    for central in (NVCenter(), P1Center()):
        hist = larmor_distribution(central, bath, 72.0)
        for branch in hist.frequencies:
            assert branch[0] == pytest.approx(bare, abs=1.0)
        assert hist.flagged == ()


def test_nv_zero_branch_is_narrow():
    bath = generate_bath(seed=4, n_spins=40)
    hist = larmor_distribution(NVCenter(), bath, 72.0)
    assert hist.branch_labels == ("mS=0", "mS=-1")
    v0 = np.var(hist.frequencies[0])
    v1 = np.var(hist.frequencies[1])
    assert v0 < 1e-2 * v1


def test_p1_branches_spread_comparably():
    bath = generate_bath(seed=4, n_spins=40)
    hist = larmor_distribution(P1Center(), bath, 72.0)
    assert hist.branch_labels == ("mS=+1/2", "mS=-1/2")
    v0 = np.var(hist.frequencies[0])
    v1 = np.var(hist.frequencies[1])
    assert 0.02 < v0 / v1 < 50.0


def test_strong_mixing_is_flagged():
    bath = Bath([(0.16, 0.0, 0.0)])
    low = larmor_distribution(BareElectron(), bath, 0.5)
    assert low.flagged == (0,)
    high = larmor_distribution(BareElectron(), bath, 72.0)
    assert high.flagged == ()


@pytest.mark.parametrize("central", [P1Center(), NVCenter()], ids=["p1", "nv"])
@pytest.mark.parametrize("b", [72.0, 1024.0])
@pytest.mark.parametrize("stack_bytes", [dynamics._STACK_BYTES, 1],
                         ids=["default-stacks", "one-spin-stacks"])
def test_batched_larmor_distribution_equals_the_per_spin_loop(
        central, b, stack_bytes, monkeypatch):
    # carbons one bond length off the defect: near the NV's ground-state
    # anticrossing (1,024 G) the two off the axis mix the electron states
    # and are flagged
    bond = DIAMOND_BOND_NM * np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                       [3 ** -0.5, 3 ** -0.5, 3 ** -0.5]])
    bath = Bath(np.vstack([generate_bath(seed=2, n_spins=40).positions,
                           bond]))
    monkeypatch.setattr(dynamics, "_STACK_BYTES", stack_bytes)
    hist = larmor_distribution(central, bath, b)
    frequencies, flagged = larmor_by_spin(central, bath, b)
    assert np.array(hist.frequencies).tobytes() == \
        np.array(frequencies).tobytes()
    assert hist.flagged == flagged
    if isinstance(central, NVCenter) and b == 1024.0:
        assert set(flagged) >= {41, 42}


def test_histogram_binning():
    bath = generate_bath(seed=9, n_spins=30)
    hist = larmor_distribution(NVCenter(), bath, 72.0, bins=12)
    assert len(hist.bin_edges) == 13
    for counts in hist.counts:
        assert sum(counts) == 30
    with pytest.raises(ValueError):
        larmor_distribution(NVCenter(), Bath([]), 72.0)


@pytest.mark.parametrize("bins, message", [
    (2_000_000, "bin count must be at most 1048576, not 2000000"),
    (np.int64(2_000_000), "bin count must be at most 1048576, not 2000000"),
    ("foo", "'foo' is not a valid estimator for `bins`")],
    ids=["count", "numpy-count", "name"])
def test_larmor_distribution_admits_its_bins_before_any_eigen_stack(
        bins, message, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigen-stack was built")

    monkeypatch.setattr(analysis, "_eigen_stacks", refuse)
    bath = generate_bath(seed=9, n_spins=10)
    with pytest.raises(ValueError, match=message):
        larmor_distribution(NVCenter(), bath, 72.0, bins=bins)


def test_larmor_distribution_takes_a_bin_count_up_to_the_cap():
    bath = generate_bath(seed=9, n_spins=10)
    hist = larmor_distribution(NVCenter(), bath, 72.0, bins=1 << 20)
    assert len(hist.bin_edges) == (1 << 20) + 1


def test_histogram_serialization():
    bath = generate_bath(seed=9, n_spins=10)
    hist = larmor_distribution(NVCenter(), bath, 72.0)
    lines = hist.to_csv().strip().split("\n")
    assert lines[0] == "spin_index,branch,freq_hz,flagged"
    assert len(lines) == 1 + 2 * 10
    payload = json.loads(json.dumps(hist.to_dict()))
    assert [b["label"] for b in payload["branches"]] == ["mS=0", "mS=-1"]
    assert len(payload["branches"][0]["frequencies_hz"]) == 10
    assert payload["flagged_spins"] == []


def test_histogram_validation():
    with pytest.raises(ValueError):
        LarmorHistogram(branch_labels=("a", "b"),
                        frequencies=((1.0,), (1.0, 2.0)),
                        bin_edges=(0.0, 1.0), counts=((1,), (2,)),
                        flagged=(), b_field=(0.0, 0.0, 72.0))
    with pytest.raises(ValueError):
        LarmorHistogram(branch_labels=("a", "b"),
                        frequencies=((1.0,), (2.0,)),
                        bin_edges=(0.0, 1.0), counts=((-1,), (1,)),
                        flagged=(), b_field=(0.0, 0.0, 72.0))


# --- revival detection and envelope fits -------------------------------------

def _cosine_curve(period, t2=None, n_pts=400, t_max=40e-6):
    tau = np.linspace(0.0, t_max, n_pts)
    sig = np.cos(np.pi * tau / period) ** 2
    if t2 is not None:
        sig = np.exp(-tau / t2) * (0.2 + 0.8 * sig)
    return EchoCurve(tau=tuple(tau), signal=tuple(np.clip(sig, -1.0, 1.0)),
                     metadata={"b_field_gauss": [0.0, 0.0, 72.0]})


def test_detect_revivals_on_cosine_envelope():
    period = 12.96e-6
    revivals = detect_revivals(_cosine_curve(period), period)
    assert len(revivals) == 3
    for n, t in enumerate(revivals, start=1):
        assert t == pytest.approx(n * period, rel=1e-3)


def test_detect_revivals_monotone_curve_is_empty():
    tau = np.linspace(0.0, 40e-6, 200)
    curve = EchoCurve(tau=tuple(tau), signal=tuple(np.exp(-tau / 8e-6)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = detect_revivals(curve, 12.96e-6)
    assert out == []
    assert len(caught) == 3
    with pytest.raises(ValueError):
        detect_revivals(curve, 0.0)


def test_detect_revivals_needs_points():
    curve = EchoCurve(tau=(0.0, 1e-6), signal=(1.0, 0.5))
    assert detect_revivals(curve, 1e-6) == []


def test_fit_t2_exponential_envelope():
    fit = fit_t2(_cosine_curve(12.96e-6, t2=30e-6))
    assert fit.model == "exponential"
    assert len(fit.revival_times) == 3
    assert fit.t2 == pytest.approx(30e-6, rel=0.05)
    assert fit_to_dict(fit)["t2_s"] == fit.t2


def test_fit_t2_gaussian_model():
    tau = np.linspace(0.0, 40e-6, 200)
    sig = np.exp(-((tau / 25e-6) ** 2))
    curve = EchoCurve(tau=tuple(tau), signal=tuple(sig))
    fit = fit_t2(curve, "gaussian", expected_period=1.0)
    assert fit.revival_times == ()
    assert fit.t2 == pytest.approx(25e-6, rel=1e-6)


def test_fit_t2_whole_curve_fallback():
    tau = np.linspace(0.0, 60e-6, 50)
    sig = np.exp(-tau / 20e-6)
    curve = EchoCurve(tau=tuple(tau), signal=tuple(sig))
    fit = fit_t2(curve, "exponential", expected_period=1.0)
    assert fit.t2 == pytest.approx(20e-6, rel=1e-9)
    assert fit.residual_norm < 1e-9


def test_fit_t2_period_from_metadata():
    curve = _cosine_curve(1.0 / (GAMMA_C13_HZ_PER_G * 72.0), t2=30e-6)
    explicit = fit_t2(curve, expected_period=1.0 / (GAMMA_C13_HZ_PER_G * 72.0))
    implicit = fit_t2(curve)
    assert implicit.t2 == pytest.approx(explicit.t2, rel=1e-12)
    bare = EchoCurve(tau=curve.tau, signal=curve.signal)
    with pytest.raises(ValueError):
        fit_t2(bare)


def test_fit_t2_rejects_flat_or_tiny_input():
    tau = np.linspace(0.0, 10e-6, 20)
    flat = EchoCurve(tau=tuple(tau), signal=(1.0,) * 20)
    with pytest.raises(ValueError):
        fit_t2(flat, expected_period=1.0)
    tiny = EchoCurve(tau=(0.0, 1e-6, 2e-6), signal=(1.0, 0.8, 0.6))
    with pytest.raises(ValueError):
        fit_t2(tiny, expected_period=1.0)
    with pytest.raises(ValueError):
        fit_t2(flat, model="stretched", expected_period=1.0)


def test_fit_result_validation():
    with pytest.raises(ValueError):
        FitResult(t2=0.0, model="exponential", residual_norm=0.0)
    with pytest.raises(ValueError):
        FitResult(t2=1.0, model="exponential", residual_norm=0.0,
                  revival_times=(2.0, 1.0))


# --- closed-form ensemble statistics -----------------------------------------

def test_mean_first_neighbor_distance_at_dilute_density():
    n = ppm_to_density_nm3(0.2)
    assert mean_kth_distance(n, 1) == pytest.approx(16.9, abs=0.2)


def test_mean_kth_distance_gamma_ratio_matches_quadrature():
    # the k = 1 coefficient is Gamma(4/3), checked against direct
    # numerical integration of its defining integral
    gamma_43, err = integrate.quad(lambda t: t ** (1.0 / 3.0) * math.exp(-t),
                                   0.0, np.inf)
    assert err < 1e-9
    n = 3.5e-5
    got = mean_kth_distance(n, 1)
    prefactor = (4.0 * math.pi * n / 3.0) ** (-1.0 / 3.0)
    assert got == pytest.approx(prefactor * gamma_43, rel=1e-9)


def test_mean_kth_distance_scalings():
    n = 1e-4
    # eight-fold density halves every distance
    assert mean_kth_distance(8 * n, 3) == pytest.approx(
        mean_kth_distance(n, 3) / 2.0, rel=1e-12)
    # farther neighbors are farther away
    d = [mean_kth_distance(n, k) for k in range(1, 10)]
    assert all(a < b for a, b in zip(d, d[1:]))
    with pytest.raises(ValueError):
        mean_kth_distance(0.0, 1)
    with pytest.raises(ValueError):
        mean_kth_distance(n, 0)
    with pytest.raises(ValueError):
        mean_kth_distance(n, 1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            mean_kth_distance(bad, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1e308, np.float64(1e308), 6e307],
                         ids=["float", "numpy", "6e307"])
def test_mean_kth_distance_refuses_a_density_whose_ball_overflows(n):
    # 4 pi n / 3 is inf, and inf^(-1/3) would be a distance of 0
    with pytest.raises(ValueError, match="with a finite 4 pi n / 3"):
        mean_kth_distance(n, 1)
    assert mean_kth_distance(1e307, 1) > 0.0


def test_mean_kth_distance_refuses_a_distance_past_the_floats():
    n = ppm_to_density_nm3(0.2)
    assert math.isfinite(mean_kth_distance(n, 170))
    # Gamma(172) overflows; Gamma(171 + 1/3) times the prefactor at 0.2 ppm
    # does, and at a tiny density so does the product at k = 150
    for density, k in ((n, 171), (n, 172), (n, 10 ** 400), (1e-300, 150)):
        with pytest.raises(ValueError, match="too large"):
            mean_kth_distance(density, k)


def test_mean_dipolar_coupling_values():
    assert mean_dipolar_coupling(16.9, angular_factor=0.5) == pytest.approx(
        5.4, abs=0.3)
    # prefactor anchor: 52.04 MHz at 1 nm with the angular factor stripped
    assert mean_dipolar_coupling(1.0, angular_factor=1.0) == pytest.approx(
        52.04e3, rel=1e-3)


def test_mean_dipolar_coupling_angles():
    parallel = mean_dipolar_coupling(2.0, theta=0.0)
    perp = mean_dipolar_coupling(2.0, theta=math.pi / 2.0)
    assert parallel == pytest.approx(-2.0 * perp, rel=1e-12)
    magic = mean_dipolar_coupling(2.0, theta=math.acos(1.0 / math.sqrt(3.0)))
    assert abs(magic) < 1e-9 * abs(perp)


def test_mean_dipolar_coupling_validation():
    with pytest.raises(ValueError):
        mean_dipolar_coupling(0.0, theta=0.0)
    with pytest.raises(ValueError):
        mean_dipolar_coupling(1.0)
    with pytest.raises(ValueError):
        mean_dipolar_coupling(1.0, theta=0.0, angular_factor=0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            mean_dipolar_coupling(bad, theta=0.0)
        with pytest.raises(ValueError, match="finite"):
            mean_dipolar_coupling(1.0, theta=bad)
        with pytest.raises(ValueError, match="finite"):
            mean_dipolar_coupling(1.0, angular_factor=bad)


def test_concentration_calibration_identity():
    assert concentration_from_td(70e-6) == pytest.approx(0.2, rel=1e-12)
    assert concentration_from_td(35e-6) == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ValueError):
        concentration_from_td(0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            concentration_from_td(bad)


def test_larmor_frequency_values():
    out = larmor_frequency(72.0)
    assert out["freq_hz"] == pytest.approx(77148.0, rel=1e-12)
    assert out["period_s"] == pytest.approx(12.962e-6, rel=1e-3)
    zero = larmor_frequency(0.0)
    assert zero["freq_hz"] == 0.0
    assert zero["period_s"] is None
    with pytest.raises(ValueError, match="field must be >= 0"):
        larmor_frequency(-1.0)
