"""Acceptance gate: one test per criterion, one ACCEPT-n verdict line each.

Criteria 1 and 2 share desk-scale ensemble runs (50 spins, 5 baths);
criterion 6 runs the production scale (125 spins, 20 baths) on threads.
The whole module targets well under a minute of wall time.
"""

import os
import time

import numpy as np
import pytest

from oracles import detect_revivals, fit_t2, kernel_signal
from spinbath.analysis import (
    concentration_from_td,
    larmor_distribution,
    mean_dipolar_coupling,
    mean_kth_distance,
    transition_table,
)
from spinbath.bathgen import Bath, cluster_bath, generate_bath
from spinbath.constants import (
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    ppm_to_density_nm3,
)
from spinbath.dynamics import SimulationConfig, ensemble_signal
from spinbath.hamiltonians import (
    BareElectron,
    JtOrientation,
    NVCenter,
    P1Center,
    _dipole_tensors,
)
from spinbath.pulses import (
    Pulse,
    canonical_text,
    compile_schedule,
    expand_preset,
    parse_sequence,
    two_level_unitary,
)

_WORKERS = min(8, os.cpu_count() or 1)


def _desk_config(central, b):
    return SimulationConfig(
        central=central,
        b_field=b,
        n_spins=50,
        g=3,
        n_baths=5,
        tau_grid=tuple(np.linspace(0.0, 30e-6, 150)),
        sequence=expand_preset("hahn"),
        master_seed=0,
        workers=_WORKERS,
    )


@pytest.fixture(scope="module")
def p1_desk_curve():
    return ensemble_signal(_desk_config(P1Center(), 72.0))


@pytest.fixture(scope="module")
def nv_desk_curves():
    # The m_S = 0 manifold precesses at the bare nuclear frequency, so the
    # probe revives at 1/(gamma_13C B) regardless of coupling strengths;
    # that makes the field-scaling check sharp.
    return {b: ensemble_signal(_desk_config(NVCenter(), b))
            for b in (47.0, 72.0, 100.0)}


@pytest.fixture(scope="module")
def full_scale_curves():
    grid = tuple(np.linspace(0.0, 45e-6, 150))
    curves = {}
    for name, central in (("p1", P1Center()), ("nv", NVCenter())):
        config = SimulationConfig(
            central=central,
            b_field=72.0,
            n_spins=125,
            g=3,
            n_baths=20,
            tau_grid=grid,
            sequence=expand_preset("hahn"),
            master_seed=0,
            workers=_WORKERS,
        )
        curves[name] = ensemble_signal(config)
    return curves


def _eseem(position, b, tau):
    """Two-frequency single-carbon echo modulation, secular hyperfine."""
    a = _dipole_tensors(position, GAMMA_E_HZ_PER_G,
                        GAMMA_C13_HZ_PER_G)[0, 2]
    f_l = GAMMA_C13_HZ_PER_G * b
    w_up = np.array([a[0] / 2.0, a[1] / 2.0, -f_l + a[2] / 2.0])
    w_dn = np.array([-a[0] / 2.0, -a[1] / 2.0, -f_l - a[2] / 2.0])
    nu_up = np.linalg.norm(w_up)
    nu_dn = np.linalg.norm(w_dn)
    k = np.linalg.norm(np.cross(w_up / nu_up, w_dn / nu_dn)) ** 2
    return (1.0 - 2.0 * k * np.sin(np.pi * nu_up * tau) ** 2
            * np.sin(np.pi * nu_dn * tau) ** 2)


def test_criterion_1_revival_position_at_72_gauss(p1_desk_curve, accept):
    period_s = 1.0 / (GAMMA_C13_HZ_PER_G * 72.0)
    revivals = detect_revivals(p1_desk_curve, period_s)
    peak_us = revivals[0] * 1e6 if revivals else None
    ok = peak_us is not None and abs(peak_us - 12.96) <= 0.03 * 12.96
    accept(1, ok, f"local maximum at {peak_us:.3f} us, target 12.96 us +/- 3%"
           if peak_us is not None else "no local maximum near the period")


def test_criterion_2_revival_time_scales_inversely_with_field(nv_desk_curves,
                                                              accept):
    parts = []
    ok = True
    for b in sorted(nv_desk_curves):
        period_s = 1.0 / (GAMMA_C13_HZ_PER_G * b)
        revivals = detect_revivals(nv_desk_curves[b], period_s)
        peak = revivals[0] * 1e6 if revivals else None
        target = period_s * 1e6
        good = peak is not None and abs(peak - target) <= 0.05 * target
        ok = ok and good
        shown = f"{peak:.3f}" if peak is not None else "none"
        parts.append(f"{b:g} G: {shown}/{target:.3f} us")
    accept(2, ok, "; ".join(parts))


def test_criterion_3_transition_spectroscopy(accept):
    off = [JtOrientation.off_axis(1)]
    t0 = time.perf_counter()
    t72 = transition_table(72.0, off)
    t32 = transition_table(32.0, off)
    elapsed = time.perf_counter() - t0
    f72 = [r.freq_mhz for r in t72]
    n32 = [r.freq_mhz for r in t32 if r.kind == "nuclear"]
    hi = min(f72, key=lambda f: abs(f - 144.0))
    mid = min(f72, key=lambda f: abs(f - 68.0))
    lo = min(n32, key=lambda f: abs(f - 90.0))
    ok = (abs(hi - 144.0) <= 2.0 and abs(mid - 68.0) <= 2.0
          and abs(lo - 90.0) <= 2.0 and elapsed < 1.0)
    accept(3, ok, f"72 G: {hi:.2f} and {mid:.2f} MHz; 32 G: {lo:.2f} MHz; "
                  f"{elapsed * 1e3:.0f} ms")


def test_criterion_4_single_carbon_closed_form(accept):
    rng = np.random.default_rng(2024)
    taus = np.linspace(0.0, 50e-6, 26)
    prog = expand_preset("hahn")
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        pos = rng.uniform(-0.9, 0.9, size=3)
        while np.linalg.norm(pos) < 0.15:
            pos = rng.uniform(-0.9, 0.9, size=3)
        b = float(rng.uniform(20.0, 150.0))
        spin = Bath([pos])
        for tau in taus:
            # the secular Hamiltonian, through the library's echo kernel
            got = kernel_signal(BareElectron(), spin, prog, float(tau), b,
                                secular_hyperfine=True)
            worst = max(worst, abs(got - _eseem(pos, b, float(tau))))
    elapsed = time.perf_counter() - t0
    accept(4, worst <= 1e-6 and elapsed < 10.0,
           f"max abs error {worst:.2e} over 20 geometries in {elapsed:.1f} s")


def test_criterion_5_ensemble_statistics(accept):
    r1 = mean_kth_distance(ppm_to_density_nm3(0.2), 1)
    coupling = mean_dipolar_coupling(r1, angular_factor=0.5)
    conc = concentration_from_td(70e-6)
    ok = (abs(r1 - 16.9) <= 0.2 and abs(coupling - 5.4) <= 0.3
          and conc == pytest.approx(0.2, rel=1e-12))
    accept(5, ok, f"r1 {r1:.3f} nm, coupling {coupling:.3f} kHz, "
                  f"concentration {conc:.4f} ppm")


def test_criterion_6_probe_damping_ordering(full_scale_curves, accept):
    t2_p1 = fit_t2(full_scale_curves["p1"], "exponential").t2 * 1e6
    t2_nv = fit_t2(full_scale_curves["nv"], "exponential").t2 * 1e6
    ok = 20.0 <= t2_p1 <= 60.0 and t2_p1 < t2_nv
    accept(6, ok, f"T2(P1) {t2_p1:.1f} us in [20, 60], T2(NV) {t2_nv:.0f} us")


def test_criterion_7_conditional_larmor_distribution(accept):
    t0 = time.perf_counter()
    ratios = {}
    for name, central in (("nv", NVCenter()), ("p1", P1Center())):
        branch0: list = []
        branch1: list = []
        for seed in range(10):
            bath = generate_bath(seed, 125, 0.011)
            hist = larmor_distribution(central, bath, 72.0)
            branch0.extend(hist.frequencies[0])
            branch1.extend(hist.frequencies[1])
        ratios[name] = float(np.var(branch0) / np.var(branch1))
    elapsed = time.perf_counter() - t0
    ok = (ratios["nv"] < 0.1 and 1.0 / 3.0 <= ratios["p1"] <= 3.0
          and elapsed < 30.0)
    accept(7, ok, f"variance ratios: NV {ratios['nv']:.2e}, "
                  f"P1 {ratios['p1']:.2f}; {elapsed:.1f} s")


def test_criterion_8_plumbing_invariants(accept):
    checks = {}

    rng = np.random.default_rng(5)
    eye = np.eye(2)
    checks["unitarity"] = all(
        np.allclose(two_level_unitary(ax, th).conj().T
                    @ two_level_unitary(ax, th), eye, atol=1e-12)
        for ax in ("x", "y", "-x", "-y")
        for th in rng.uniform(0.1, 2.0 * np.pi, 6))

    bath = generate_bath(3, 40)
    part = cluster_bath(bath, 3)
    members = sorted(i for grp in part for i in grp)
    checks["partition"] = (members == list(range(40))
                           and max(len(grp) for grp in part) <= 3)

    golden = "pi/2(x) - tau/2 - [pi(y) - tau]^2 - pi(-y)"
    checks["parser"] = canonical_text(parse_sequence(golden)) == golden
    sched = compile_schedule(expand_preset("xy8", 2), tau=2e-6)
    n_pi = sum(1 for r in sched
               if isinstance(r, Pulse) and abs(r.angle_deg - 180.0) < 1e-12)
    checks["presets"] = n_pi == 16

    shared = dict(central=P1Center(), b_field=72.0, n_spins=12, g=3,
                  n_baths=2, tau_grid=tuple(np.linspace(0.0, 8e-6, 5)),
                  sequence=expand_preset("hahn"), master_seed=3)
    s1 = ensemble_signal(SimulationConfig(workers=1, **shared)).signal
    s4 = ensemble_signal(SimulationConfig(workers=4, **shared)).signal
    checks["workers"] = list(s1) == list(s4)

    failed = [name for name, good in checks.items() if not good]
    accept(8, not failed, "all plumbing invariants green" if not failed
           else "failed: " + ", ".join(failed))
