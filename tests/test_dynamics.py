import itertools
import json
import math
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.bathgen as bathgen
import spinbath.dynamics as dynamics
import spinbath.pulses as pulses
from oracles import (evolve, group_curves_unrolled, kernel_signal,
                     plans_from_schedules, total_time)
from spinbath.bathgen import (Bath, Partition, child_seed, cluster_bath,
                              generate_bath)
from spinbath.constants import (
    A_PAR_MHZ,
    A_PERP_MHZ,
    D_NV_MHZ,
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    GAMMA_E_MHZ_PER_G,
    Q_N14_MHZ,
)
from spinbath.dynamics import (
    EchoCurve,
    SimulationConfig,
    _echo,
    _evolution_time,
    _levels,
    _plans,
    _Setup,
    _unrolled_length,
    ensemble_signal,
    field_scan,
    group_signal,
    scan_csv,
)
from spinbath.hamiltonians import (
    BareElectron,
    JtOrientation,
    NVCenter,
    P1Center,
    _dipole_tensors,
    build_hamiltonian_stack,
    build_system_hamiltonian,
    level_pair,
)
from spinbath.pulses import (Delay, Pulse, PulseProgram, Repeat,
                             compile_schedule, expand_preset, parse_sequence,
                             two_level_unitary)


def _spin(x, y, z):
    return (x, y, z)


def _setup(central, program, taus, sizes, b=72.0):
    """The echo set-up of central at b on program at taus, for groups of
    the given sizes."""
    return _Setup(central, b, _levels(central, b)[0], _plans(program, taus),
                  sizes)


def _subset(bath, index):
    """The spins of bath at index, as a group."""
    index = list(index)
    return Bath(bath.positions[index])


def _eseem_closed_form(position, b, tau):
    """Two-frequency echo modulation of one carbon, secular hyperfine."""
    a = _dipole_tensors(position, GAMMA_E_HZ_PER_G, GAMMA_C13_HZ_PER_G)[0, 2]
    f_l = GAMMA_C13_HZ_PER_G * b
    w_up = np.array([a[0] / 2.0, a[1] / 2.0, -f_l + a[2] / 2.0])
    w_dn = np.array([-a[0] / 2.0, -a[1] / 2.0, -f_l - a[2] / 2.0])
    nu_up = np.linalg.norm(w_up)
    nu_dn = np.linalg.norm(w_dn)
    k = np.linalg.norm(np.cross(w_up / nu_up, w_dn / nu_dn)) ** 2
    return (1.0 - 2.0 * k * np.sin(np.pi * nu_up * tau) ** 2
            * np.sin(np.pi * nu_dn * tau) ** 2)


@pytest.mark.parametrize("name,n", [("hahn", None), ("cpmg", 2), ("xy8", 1)])
def test_zero_delay_signal_is_unity(name, n):
    group = Bath([_spin(0.5, 0.2, 0.4), _spin(-0.4, 0.6, 0.1)])
    prog = expand_preset(name, n)
    for central in (P1Center(), NVCenter(), BareElectron()):
        assert group_signal(central, group, prog, 0.0, 72.0) == pytest.approx(
            1.0, abs=1e-12)


def test_empty_group_keeps_full_coherence():
    assert group_signal(NVCenter(), Bath([]), expand_preset("hahn"), 7e-6,
                        72.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tau", [-1e-6, -0.0 - 5e-324, math.inf, -math.inf,
                                 math.nan])
def test_group_signal_refuses_a_negative_or_non_finite_tau(tau):
    with pytest.raises(ValueError, match="non-negative and finite"):
        group_signal(P1Center(), Bath([_spin(0.5, 0.3, 0.2)]),
                     expand_preset("hahn"), tau, 72.0)


def _carbons(k):
    """k carbons within 0.8 nm, none on the defect."""
    return Bath(np.random.default_rng(k).uniform(0.2, 0.45, (k, 3))
                * np.resize([1, -1], 3))


@pytest.mark.parametrize("central, group, sequence, tau, message", [
    (NVCenter(), Bath([_spin(0.5, 0.3, 0.2)]), "hahn", 1e3,
     "fp64 no longer resolves it to 1e-6 rad"),
    (P1Center(), _carbons(1), "pi/2(x) - [pi(x)]^10000000 - tau - pi/2(x)",
     1e-6, "unrolls to 1e.07 pulses and delays, past the 1048576 allowed"),
    (P1Center(), _carbons(11), "hahn", 1e-6, "a group may take"),
], ids=["phase", "items", "group-bytes"])
def test_group_signal_refuses_what_its_one_tau_config_refuses(
        central, group, sequence, tau, message, monkeypatch):
    # refused from counts, before the program is walked or the group (11
    # P1 carbons: D = 12,288, 2.4 GB a matrix) is set up
    def refuse(*args, **kwargs):
        raise AssertionError("the program was walked or the group set up")

    monkeypatch.setattr(pulses, "_runs", refuse)
    monkeypatch.setattr(dynamics, "_Setup", refuse)
    program = (expand_preset(sequence) if sequence == "hahn"
               else parse_sequence(sequence))
    with pytest.raises(ValueError, match=message) as want:
        SimulationConfig(central=central, n_spins=len(group), g=len(group),
                         tau_grid=(tau,), sequence=program)
    with pytest.raises(ValueError) as got:
        group_signal(central, group, program, tau, 72.0)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1e300, 1e307])
def test_a_phase_the_carbons_widen_past_the_bound_is_refused(tau):
    # a bare electron at zero field has no spectral width of its own, so its
    # config passes; the carbons' levels span 127 kHz
    group = Bath([_spin(0.5, 0.3, 0.2)])
    with pytest.raises(ValueError, match="spectral width of 1.27e.05 Hz"):
        group_signal(BareElectron(), group, expand_preset("hahn"), tau, 0.0)
    config = SimulationConfig(central=BareElectron(), b_field=0.0, n_spins=4,
                              n_baths=1, tau_grid=(0.0, tau))
    with pytest.raises(ValueError, match="no longer resolves it to 1e-6 rad"):
        ensemble_signal(config)


# Any float64, as a float or a numpy scalar: NaN, +-inf, +-0, subnormals
# and +-1e308 among them.
_ANY_FLOAT = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
     -math.inf])
_ANY_FLOAT = _ANY_FLOAT | _ANY_FLOAT.map(np.float64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(central=st.sampled_from([P1Center(), P1Center(m_i=None), NVCenter(),
                                BareElectron()]),
       sequence=st.sampled_from([("hahn",), ("cpmg", 2), ("xy8", 1)]),
       tau=_ANY_FLOAT,
       b=_ANY_FLOAT | st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT))
def test_group_signal_of_any_float_tau_and_field_is_a_signal_or_refused(
        central, sequence, tau, b):
    # no warning (an error here), no NaN and no traceback but ValueError's
    group = Bath([_spin(0.5, 0.3, 0.2), _spin(-0.4, 0.6, 0.1)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signal = group_signal(central, group, expand_preset(*sequence),
                                  tau, b)
    except ValueError as err:
        assert str(err) and "\n" not in str(err)
    else:
        assert math.isfinite(signal) and abs(signal) <= 1.0 + 1e-9


def test_single_carbon_echo_matches_closed_form():
    rng = np.random.default_rng(31)
    taus = np.linspace(0.0, 50e-6, 26)
    prog = expand_preset("hahn")
    for _ in range(6):
        pos = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(pos) < 0.3:
            pos = pos + 0.5
        b = float(rng.uniform(30.0, 110.0))
        spin = Bath([pos])
        for tau in taus:
            got = kernel_signal(BareElectron(), spin, prog, tau, b,
                                secular_hyperfine=True)
            want = _eseem_closed_form(pos, b, tau)
            assert abs(got - want) < 1e-6, (pos, b, tau)


def test_engine_agrees_with_direct_density_matrix_evolution():
    """Replay a schedule by brute force on the full density matrix."""
    central = P1Center()
    group = Bath([_spin(0.5, 0.3, 0.2), _spin(-0.3, 0.4, 0.6)])
    b = 72.0
    nb = 4

    hc = central.hamiltonian(b)
    wc, vc = np.linalg.eigh(hc)
    ia, ib = level_pair(central, vc)
    a_vec, b_vec = vc[:, ia], vc[:, ib]
    h = build_system_hamiltonian(central, group, b)

    pair = np.stack([a_vec, b_vec], axis=1)
    rho0 = np.kron(np.outer(a_vec, a_vec.conj()), np.eye(nb)) / nb
    proj = np.kron(np.outer(a_vec, a_vec.conj()), np.eye(nb))

    for name, n in [("hahn", None), ("cpmg", 2)]:
        prog = expand_preset(name, n)
        u = np.eye(6 * nb, dtype=complex)
        u_pair0 = np.eye(2, dtype=complex)
        for event in compile_schedule(prog, tau=4.7e-6):
            if hasattr(event, "axis"):
                u2 = two_level_unitary(event.axis, event.angle_rad)
                uc = np.eye(6, dtype=complex) + pair @ (u2 - np.eye(2)) @ pair.conj().T
                u = np.kron(uc, np.eye(nb)) @ u
                u_pair0 = u2 @ u_pair0
            else:
                u = evolve(h, event) @ u
        rho = u @ rho0 @ u.conj().T
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        raw = 2.0 * np.trace(proj @ rho).real - 1.0
        eta = -1.0 if (2.0 * abs(u_pair0[0, 0]) ** 2 - 1.0) < -0.99 else 1.0
        want = eta * raw
        got = group_signal(central, group, prog, 4.7e-6, b)
        assert got == pytest.approx(want, abs=1e-10), name


def test_detached_groups_factorize():
    # two carbons far apart: the joint signal approximately factorizes
    s1, s2 = _spin(0.6, 0.0, 0.4), _spin(-8.0, 7.0, -9.0)
    hahn = expand_preset("hahn")
    # carbon-carbon coupling off: the oracle's decoupled-carbon form
    joint = kernel_signal(NVCenter(), Bath([s1, s2]), hahn, 9e-6, 72.0,
                          include_nn=False)
    split = (group_signal(NVCenter(), Bath([s1]), hahn, 9e-6, 72.0)
             * group_signal(NVCenter(), Bath([s2]), hahn, 9e-6, 72.0))
    assert joint == pytest.approx(split, abs=1e-6)


def test_the_model_has_no_carbon_pair_switch():
    # the decoupled-carbon form lives in oracles.group_hamiltonian alone
    with pytest.raises(TypeError):
        SimulationConfig(include_nn=False)
    with pytest.raises(TypeError):
        group_signal(NVCenter(), Bath([_spin(0.6, 0.0, 0.4)]),
                     expand_preset("hahn"), 9e-6, 72.0, include_nn=False)
    with pytest.raises(TypeError):
        build_hamiltonian_stack(NVCenter(), [[_spin(0.6, 0.0, 0.4)]], 72.0,
                                include_nn=False)


def test_secular_factorization_is_exact():
    # with only S_z I terms every group commutes, so even two nearby
    # carbons factorize to rounding (carbon-carbon coupling off)
    s1, s2 = _spin(0.6, 0.0, 0.4), _spin(0.1, 0.8, -0.3)
    hahn = expand_preset("hahn")
    kw = dict(include_nn=False, secular_hyperfine=True)
    joint = kernel_signal(BareElectron(), Bath([s1, s2]), hahn, 9e-6, 72.0,
                          **kw)
    split = (kernel_signal(BareElectron(), Bath([s1]), hahn, 9e-6, 72.0, **kw)
             * kernel_signal(BareElectron(), Bath([s2]), hahn, 9e-6, 72.0,
                             **kw))
    assert joint == pytest.approx(split, abs=1e-12)


def test_decoupled_bath_shows_no_decay():
    group = Bath([_spin(0.4, 0.2, 0.3), _spin(-0.2, 0.5, 0.1)])
    for tau in (3e-6, 11e-6, 27e-6):
        got = kernel_signal(P1Center(), group, expand_preset("hahn"), tau,
                            72.0, hyperfine_scale=0.0)
        assert got == pytest.approx(1.0, abs=1e-12)


def test_signal_stays_in_physical_range():
    rng = np.random.default_rng(8)
    bath = generate_bath(seed=77, n_spins=12)
    part = cluster_bath(bath, g=3)
    for _ in range(5):
        tau = float(rng.uniform(0.0, 40e-6))
        for central in (P1Center(), NVCenter()):
            s = _echo(_setup(central, expand_preset("hahn"), [tau],
                             range(1, 4)), bath, part.groups)[0]
            assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9


def test_thermal_nitrogen_averages_the_projections():
    group = Bath([_spin(0.5, 0.3, 0.2)])
    hahn = expand_preset("hahn")
    fixed = [group_signal(P1Center(m_i=m), group, hahn, 6e-6, 72.0)
             for m in (-1, 0, 1)]
    thermal = group_signal(P1Center(m_i=None), group, hahn, 6e-6, 72.0)
    assert thermal == pytest.approx(np.mean(fixed), abs=1e-12)
    # the projections genuinely differ, so the average is a real constraint
    assert np.ptp(fixed) > 1e-6


def test_thermal_nitrogen_products_before_averaging():
    # one shared nitrogen: S_T is the product at fixed projection, then the
    # projection average; averaging each group first would be a different
    # (wrong) number
    bath = Bath([_spin(0.5, 0.3, 0.2), _spin(-0.4, 0.1, 0.5)])
    part = Partition(groups=((0,), (1,)), g=1, n_spins=2)
    hahn = expand_preset("hahn")
    got = _echo(_setup(P1Center(m_i=None), hahn, [9e-6], [1]), bath,
                part.groups)[0]
    per_m = []
    for m in (-1, 0, 1):
        center = P1Center(m_i=m)
        per_m.append(np.prod([
            group_signal(center, _subset(bath, [k]), hahn, 9e-6, 72.0)
            for k in range(2)]))
    assert got == pytest.approx(np.mean(per_m), abs=1e-12)
    wrong = np.prod([
        np.mean([group_signal(P1Center(m_i=m), _subset(bath, [k]), hahn,
                              9e-6, 72.0)
                 for m in (-1, 0, 1)])
        for k in range(2)])
    assert abs(got - wrong) > 1e-4


@pytest.mark.parametrize("prog", [
    parse_sequence("pi/2(x) - 2us - tau - pi(y) - tau - pi/2(x)"),
    expand_preset("xy8", 4),
], ids=["fixed-delay", "xy8-4"])
def test_batched_kernel_matches_single_schedules(prog):
    # tau = 0 drops the symbolic intervals (the fixed delay stays), so one
    # call runs two plans
    taus = (0.0, 1.5e-6, 4e-6, 0.0, 9.25e-6)
    group = Bath([_spin(0.5, 0.3, 0.2), _spin(-0.3, 0.4, 0.6),
                  _spin(0.2, -0.5, 0.3)])
    for central in (P1Center(m_i=None), NVCenter()):
        batched = _echo(_setup(central, prog, taus, [3]), group, [range(3)])
        for tau, got in zip(taus, batched):
            want = group_signal(central, group, prog, tau, 72.0)
            assert got == pytest.approx(want, abs=1e-10), tau


_KERNEL_CENTRALS = [P1Center(), P1Center(m_i=None), NVCenter(), BareElectron()]
_KERNEL_PROGRAMS = [expand_preset("hahn"), expand_preset("cpmg", 4),
                    expand_preset("xy8", 2),
                    parse_sequence("pi/2(x) - 2us - tau - pi(y) - tau - pi/2(x)")]


def _kernel_inputs(central, prog, taus):
    """The probed pairs and the echo set-up of prog at taus, then per size
    g = 1-4 the eigen-stack of the groups of one seeded bath, for the
    kernel tests."""
    probes = _levels(central, 72.0)[0]
    setup = _Setup(central, 72.0, probes, _plans(prog, taus), (1, 2, 3, 4))
    bath = generate_bath(seed=4, n_spins=12)
    index = [np.arange(12 - 12 % g).reshape(-1, g) for g in (1, 2, 3, 4)]
    stacks = [np.linalg.eigh(build_hamiltonian_stack(
                  central, bath.positions[idx], 72.0))
              for idx in index]
    return probes, setup, stacks


@pytest.mark.parametrize("central", _KERNEL_CENTRALS,
                         ids=["p1", "p1-thermal", "nv", "electron"])
@pytest.mark.parametrize("prog", _KERNEL_PROGRAMS,
                         ids=["hahn", "cpmg-4", "xy8-2", "fixed-delay"])
def test_kernel_matches_the_unrolled_oracle(central, prog):
    # mixed: tau = 0 twice and a repeated tau, so the zero-delay plan holds
    # two taus and the timed plan two equal columns; every table is
    # the direct exp.  uniform, the default grid: the timed plan's table
    # is factorized and rounds its phase arguments differently.  At the
    # NV's 2.9 GHz over 60 us (1.1e6 rad) one rounding of an argument is
    # 1.2e-10 rad, and the oracle's direct exp itself is up to 3.9e-10
    # from exact phases on XY8-2, so there the bound is 1e-9
    grids = [((0.0, 1e-6, 3e-6, 3e-6, 0.0, 12e-6), False, 1e-12),
             (np.linspace(0.0, 30e-6, 150), True,
              1e-9 if isinstance(central, NVCenter) else 1e-10)]
    for taus, uniform, tol in grids:
        probes, setup, stacks = _kernel_inputs(central, prog, taus)
        assert any(plan[3] is not None for plan in setup.plans) == uniform
        n = len(taus)
        for g, (w, v) in enumerate(stacks, 1):
            got = dynamics._group_curves(w, v, setup)
            for p, (_, (a, b)) in enumerate(probes):
                want = group_curves_unrolled(w, v, a, b, setup.eta,
                                             setup.plans, n)
                assert np.abs(got[:, p] - want).max() <= tol, (uniform, g, p)


@pytest.mark.parametrize("central", [P1Center(), NVCenter()], ids=["p1", "nv"])
@pytest.mark.parametrize("taus", [
    np.geomspace(1e-7, 30e-6, 40),
    np.linspace(0.0, 30e-6, 150) + np.where(np.arange(150) == 70, 1e-12, 0.0),
], ids=["geometric", "one-tau-off"])
def test_non_uniform_grid_keeps_the_direct_exp(central, taus, monkeypatch):
    prog = expand_preset("xy8", 2)
    _, setup, stacks = _kernel_inputs(central, prog, taus)
    assert all(plan[3] is None for plan in setup.plans)
    got = [dynamics._group_curves(w, v, setup) for w, v in stacks]
    monkeypatch.setattr(dynamics, "_phase_table", lambda rate, durations, _:
                        np.exp(rate[..., None, None] * durations))
    for (w, v), curves in zip(stacks, got):
        want = dynamics._group_curves(w, v, setup)
        assert curves.tobytes() == want.tobytes()


def test_program_without_delays_runs_on_a_uniform_grid():
    # one plan for every tau, with no row of durations to tabulate
    prog = parse_sequence("pi/2(x) - pi/2(y)")
    taus = np.linspace(0.0, 30e-6, 10)
    group = Bath([_spin(0.5, 0.3, 0.2), _spin(-0.3, 0.4, 0.6)])
    for central in (P1Center(), NVCenter()):
        signal = _echo(_setup(central, prog, taus, [2]), group, [range(2)])
        assert (signal == group_signal(central, group, prog, 0.0,
                                       72.0)).all()


_SHAPE_CENTRALS = [P1Center(), NVCenter(), P1Center(m_i=None)]


def _geometric_grid(n):
    """tau = 0, then n taus of no progression, so that the kernel's phase
    tables are the direct exp of the unrolled oracle."""
    return (0.0, *np.geomspace(1e-7, 30e-6, n))


def _assert_kernel_matches_the_oracle(central, prog, taus):
    probes, setup, stacks = _kernel_inputs(central, prog, taus)
    for g, (w, v) in enumerate(stacks, 1):
        got = dynamics._group_curves(w, v, setup)
        for p, (_, (a, b)) in enumerate(probes):
            want = group_curves_unrolled(w, v, a, b, setup.eta, setup.plans,
                                         len(taus))
            assert np.abs(got[:, p] - want).max() <= 1e-12, (g, p)


@pytest.mark.parametrize("central", _SHAPE_CENTRALS,
                         ids=["p1", "nv", "p1-thermal"])
@pytest.mark.parametrize("text", [
    "pi/2(x) - tau - pi/2(x)", "pi/2(x) - pi(y) - pi/2(x)",
    "pi/2(x) - 2us - pi(x) - tau - pi/2(x)"],
    ids=["one-run", "pulse-only", "literal-delay"])
def test_every_plan_shape_matches_the_unrolled_oracle(central, text):
    # 100 timed taus, more than any D here (96 at most): one run with no
    # pulse to fold it into, no run at any tau, and a literal delay whose
    # run is alone at tau = 0 and folded into the pi(x) after it elsewhere
    _assert_kernel_matches_the_oracle(central, parse_sequence(text),
                                      _geometric_grid(100))


@pytest.mark.parametrize("central", _SHAPE_CENTRALS,
                         ids=["p1", "nv", "p1-thermal"])
@pytest.mark.parametrize("prog", [expand_preset("hahn"),
                                  expand_preset("xy8", 2)],
                         ids=["hahn", "xy8-2"])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["d-1", "d", "d+1"])
def test_the_fold_rule_matches_the_unrolled_oracle(central, prog, offset):
    # T = D - 1, D and D + 1 timed taus for the groups of two carbons: the
    # first interval is folded into the first pulse's GEMM only past D
    dim = math.prod(central.dims) << 2
    _assert_kernel_matches_the_oracle(central, prog,
                                      _geometric_grid(dim + offset))


def _assert_plans_match_the_schedules(program, grid):
    """_plans of program on grid is, plan for plan and byte for byte, the
    grouping of the schedules compiled at each tau."""
    want_eta, want = plans_from_schedules(program, grid)
    got_eta, got = _plans(program, grid)
    assert got_eta == want_eta
    assert [pickle.dumps(p) for p in got] == [pickle.dumps(p) for p in want]


_PLAN_GRIDS = [tuple(np.linspace(0.0, 30e-6, 150)),
               (0.0, 1e-6, 3e-6, 3e-6, 0.0, 12e-6),
               (0.0, 5e-324, 1e-6, 5e-324)]  # tau/2 of 5e-324 is 0


@pytest.mark.parametrize("program", [
    expand_preset("hahn"), expand_preset("xy8", 4), expand_preset("cpmg", 8),
    expand_preset("xy8", 64),
    parse_sequence("pi/2(x) - 2us - tau - pi(y) - tau - 0us - pi/2(x)"),
    parse_sequence("pi/2(x) - pi/2(y)")],
    ids=["hahn", "xy8-4", "cpmg-8", "xy8-64", "fixed-delay", "no-delay"])
@pytest.mark.parametrize("grid", _PLAN_GRIDS,
                         ids=["uniform", "zeros", "subnormal"])
def test_plans_equal_those_of_the_compiled_schedules(program, grid):
    _assert_plans_match_the_schedules(program, grid)


_pulse = st.builds(Pulse, st.sampled_from(["x", "y", "-x", "-y"]),
                   st.sampled_from([90.0, 180.0, 45.0]))
_delay = st.one_of(st.builds(Delay, divisor=st.integers(1, 3)),
                   st.builds(Delay, st.sampled_from([0.0, 0.5, 2.0]),
                             st.just("us")))
_items = st.recursive(st.one_of(_pulse, _delay), lambda inner: st.builds(
    Repeat, st.lists(inner, min_size=1, max_size=4), st.integers(1, 3)),
    max_leaves=12)
_tau = st.one_of(st.sampled_from([0.0, 5e-324, 1e-6, 3e-6]),
                 st.floats(0.0, 40e-6))


@settings(max_examples=60, deadline=None)
@given(items=st.lists(_items, min_size=1, max_size=6),
       grid=st.one_of(
           st.tuples(st.integers(0, 2), st.lists(_tau, max_size=8)).map(
               lambda z: (0.0,) * z[0] + tuple(z[1])),
           st.builds(lambda n, top: tuple(np.linspace(0.0, top, n)),
                     st.integers(1, 40), st.floats(1e-7, 40e-6))))
def test_plans_of_drawn_programs_equal_those_of_the_schedules(items, grid):
    # nested repeats of pulses and of literal (0us too) and symbolic delays,
    # on grids with leading and repeated zeros, and uniform ones
    _assert_plans_match_the_schedules(PulseProgram(tuple(items)), grid)


def test_plans_take_no_schedule_per_tau():
    # XY8-64 on 2^16 taus: rows for its 3 distinct runs of delays, where
    # one schedule per tau took 62 kB, 4.1 GB in all
    grid = tuple(np.linspace(0.0, 30e-6, 1 << 16))
    tracemalloc.start()
    try:
        _, plans = _plans(expand_preset("xy8", 64), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(plan[1]) for plan in plans] == [1, (1 << 16) - 1]
    assert peak < 32e6


_coordinate = st.floats(-1.2, 1.2)
_position = st.tuples(_coordinate, _coordinate, _coordinate).filter(
    lambda p: math.hypot(*p) >= 0.15)


@settings(max_examples=25, deadline=None)
@given(positions=st.lists(_position, min_size=1, max_size=3).filter(
           lambda ps: all(math.dist(p, q) >= 0.1
                          for p, q in itertools.combinations(ps, 2))),
       central=st.sampled_from([P1Center(m_i=m) for m in (-1, 0, 1, None)]
                               + [NVCenter(), BareElectron()]),
       preset=st.sampled_from([("hahn", None), ("cpmg", 1), ("cpmg", 4),
                               ("xy8", 1), ("xy8", 2)]),
       b=st.floats(40.0, 120.0),
       taus=st.lists(st.floats(0.0, 40e-6), min_size=1, max_size=4))
def test_echo_is_bounded_and_starts_at_one(positions, central, preset, b,
                                           taus):
    group = Bath(positions)
    signal = _echo(_setup(central, expand_preset(*preset), (0.0, *taus),
                          [len(group)], b), group, [range(len(group))])
    assert abs(signal[0] - 1.0) <= 1e-12
    assert np.abs(signal).max() <= 1.0 + 1e-12


def _mixed_groups():
    # sizes interleaved, so the stacks by size run out of the given order
    bath = generate_bath(seed=4, n_spins=12)
    groups = [range(0, 2), [2], range(3, 6), [6], range(7, 9), range(9, 12)]
    return bath, groups, (0.0, 2e-6, 7.5e-6, 13e-6)


@pytest.mark.parametrize("central", [P1Center(), NVCenter(),
                                     P1Center(m_i=None)],
                         ids=["p1", "nv", "p1-thermal"])
def test_mixed_group_sizes_multiply_per_group_signals(central):
    bath, groups, taus = _mixed_groups()
    # a thermal nitrogen averages the products of its three projections
    variants = ([replace(central, m_i=m) for m in (-1, 0, 1)]
                if isinstance(central, P1Center) and central.m_i is None
                else [central])
    hahn = expand_preset("hahn")
    got = _echo(_setup(central, hahn, taus, [1, 2, 3]), bath, groups)
    for tau, value in zip(taus, got):
        want = np.mean([np.prod([group_signal(variant, _subset(bath, group),
                                              hahn, tau, 72.0)
                                 for group in groups])
                        for variant in variants])
        assert value == pytest.approx(want, abs=1e-12)


def test_stack_size_leaves_the_echo_unchanged(monkeypatch):
    bath, groups, taus = _mixed_groups()
    setup = _setup(P1Center(m_i=None), expand_preset("hahn"), taus, [1, 2, 3])
    whole = _echo(setup, bath, groups)
    monkeypatch.setattr(dynamics, "_STACK_BYTES", 1)  # one group a stack
    split = _echo(setup, bath, groups)
    assert whole.tobytes() == split.tobytes()


@pytest.mark.parametrize("central, prog", [
    (P1Center(m_i=None), expand_preset("hahn")),
    (NVCenter(), expand_preset("hahn")),
    (P1Center(), expand_preset("xy8", 2))], ids=["p1-thermal", "nv", "xy8-2"])
def test_slab_size_leaves_the_echo_unchanged(central, prog, monkeypatch):
    # groups of mixed sizes, on grids that hold tau = 0: 4 taus, and 60,
    # past every D here (48 at most), so the first interval is folded
    bath, groups, taus = _mixed_groups()
    setups = [_setup(central, prog, grid, [1, 2, 3])
              for grid in (taus, (0.0, *np.linspace(1e-6, 30e-6, 59)))]
    wholes = [_echo(setup, bath, groups) for setup in setups]
    # one group a chunk, then every stack in one chunk
    for slab_bytes in (1, 1 << 40):
        monkeypatch.setattr(dynamics, "_SLAB_BYTES", slab_bytes)
        for setup, whole in zip(setups, wholes):
            assert _echo(setup, bath, groups).tobytes() == whole.tobytes()


@pytest.mark.parametrize("central", _KERNEL_CENTRALS,
                         ids=["p1", "p1-thermal", "nv", "electron"])
def test_group_curves_on_a_stack_equal_per_group_calls(central, monkeypatch):
    taus = (0.0, 1e-6, 3e-6, 3e-6, 0.0, 12e-6)
    _, setup, stacks = _kernel_inputs(central, expand_preset("xy8", 2), taus)
    monkeypatch.setattr(dynamics, "_SLAB_BYTES", 1 << 40)  # one chunk
    for w, v in stacks:
        got = dynamics._group_curves(w, v, setup)
        want = np.concatenate([dynamics._group_curves(w[k:k + 1], v[k:k + 1],
                                                      setup)
                               for k in range(len(w))])
        assert got.tobytes() == want.tobytes()


def test_ensemble_is_deterministic_and_worker_invariant():
    grid = tuple(np.linspace(0.0, 20e-6, 7))
    base = SimulationConfig(central=NVCenter(), n_spins=10, n_baths=3,
                            tau_grid=grid, master_seed=5)
    c1 = ensemble_signal(base)
    c2 = ensemble_signal(base)
    assert c1.signal == c2.signal
    c4 = ensemble_signal(SimulationConfig(central=NVCenter(), n_spins=10,
                                          n_baths=3, tau_grid=grid,
                                          master_seed=5, workers=4))
    assert c1.signal == c4.signal
    assert c1.per_bath == c4.per_bath
    # different master seed, different baths
    c5 = ensemble_signal(SimulationConfig(central=NVCenter(), n_spins=10,
                                          n_baths=3, tau_grid=grid,
                                          master_seed=6))
    assert c1.signal != c5.signal


def test_ensemble_average_is_bath_mean():
    grid = (0.0, 8e-6, 16e-6)
    curve = ensemble_signal(SimulationConfig(n_spins=8, n_baths=4,
                                             tau_grid=grid, master_seed=2))
    assert len(curve.per_bath) == 4
    mean = np.mean(curve.per_bath, axis=0)
    assert curve.signal == pytest.approx(tuple(mean), abs=1e-15)
    assert curve.signal[0] == pytest.approx(1.0, abs=1e-12)


def test_small_p1_ensemble_revives_at_the_larmor_period():
    # tiny bath, one period: the echo collapses and substantially recovers
    t_l = 1.0 / (GAMMA_C13_HZ_PER_G * 72.0)
    grid = (0.5 * t_l, 0.97 * t_l, t_l, 1.03 * t_l)
    curve = ensemble_signal(SimulationConfig(n_spins=14, n_baths=3,
                                             tau_grid=grid, master_seed=3))
    collapse = curve.signal[0]
    revival = max(curve.signal[1:])
    assert revival > collapse + 0.2
    assert revival > 0.5


def test_field_scan_rows_match_single_runs():
    # each whole row, metadata included, as JSON text (-0.0 is not 0.0),
    # with a thermal nitrogen too, and on threads
    for central, fields, workers in (
            (P1Center(), [47.0, 72.0, -0.0, 0.0], 1),
            (P1Center(m_i=None), [47.0, 72.0], 1),
            (P1Center(), [47.0, 72.0, -0.0], 2)):
        run = dict(central=central, n_spins=8, n_baths=2,
                   tau_grid=(0.0, 5e-6, 10e-6), master_seed=11,
                   workers=workers)
        curves = field_scan(SimulationConfig(**run), fields)
        assert len(curves) == len(fields)
        for b, curve in zip(fields, curves):
            single = ensemble_signal(SimulationConfig(**run,
                                                      b_field=(0.0, 0.0, b)))
            assert json.dumps(curve.to_dict()) == json.dumps(single.to_dict())
            assert repr(curve.metadata["b_field_gauss"]) == repr([0.0, 0.0, b])
        with pytest.raises(ValueError):
            field_scan(SimulationConfig(**run), [])


def test_field_scan_refuses_a_negative_field():
    # scan_csv writes a field's norm, so -40 G would read as 40 G
    config = SimulationConfig(n_spins=4, g=1, n_baths=1, tau_grid=(5e-6,))
    for fields in ([-40.0, 40.0], [40.0, -5e-324]):
        with pytest.raises(ValueError, match="^field must be finite and ≥ 0$"):
            field_scan(config, fields)


def test_scan_csv_long_format():
    grid = (0.0, 5e-6)
    config = SimulationConfig(n_spins=6, n_baths=2, tau_grid=grid,
                              master_seed=1)
    curves = field_scan(config, [47.0, 72.0])
    text = scan_csv(curves)
    lines = text.strip().split("\n")
    assert lines[0] == "b_gauss,tau_us,signal"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert float(first[0]) == 47.0
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-9)


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(tau_grid=(2e-6, 1e-6))
    with pytest.raises(ValueError):
        SimulationConfig(tau_grid=(-1e-6,))
    with pytest.raises(ValueError):
        SimulationConfig(n_baths=0)
    with pytest.raises(ValueError):
        SimulationConfig(g=0)
    with pytest.raises(ValueError):
        SimulationConfig(workers=0)
    with pytest.raises(ValueError):
        SimulationConfig(n_spins=-2)
    assert SimulationConfig(b_field=72.0).b_field == (0.0, 0.0, 72.0)


def test_simulation_config_rejects_non_finite_taus():
    with pytest.raises(ValueError, match="finite"):
        SimulationConfig(tau_grid=(0.0, float("nan")))
    with pytest.raises(ValueError, match="finite"):
        SimulationConfig(tau_grid=(0.0, float("inf")))


def test_simulation_config_rejects_non_finite_fields():
    # 1e308 G is finite, but gamma_e times it is not
    for b in (float("nan"), float("inf"), (0.0, float("nan"), 72.0), 1e308,
              (-4e301, 0.0, 4e301)):
        with pytest.raises(ValueError, match="finite"):
            SimulationConfig(b_field=b)


def test_simulation_config_rejects_bad_min_radius():
    for r in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="min_radius"):
            SimulationConfig(min_radius=r)


@pytest.mark.parametrize("program", [
    expand_preset("hahn"), expand_preset("cpmg", 64), expand_preset("xy8", 3),
    expand_preset("xy8", 64),
    parse_sequence("pi/2(x) - 2us - tau - pi(y) - tau/3 - 1e3ns - pi/2(x)")],
    ids=["hahn", "cpmg-64", "xy8-3", "xy8-64", "text"])
def test_evolution_time_is_the_compiled_schedules_sum(program):
    # the phase check sums the program's delays without compiling it
    for tau in (0.0, 1e-6, 30e-6):
        want = total_time(compile_schedule(program, tau))
        assert abs(_evolution_time(program.items, tau) - want) <= 1e-13 * want


def test_simulation_config_bounds_the_unrolled_program():
    # each pulse and delay once per repetition, a repeat its count times
    # its block; 2^20 items pass and one more does not
    pulse = Pulse("x", 180.0)
    at_budget = PulseProgram((Repeat((pulse, Delay(1.0, "ns")), 1 << 19),))
    assert _unrolled_length(at_budget.items) == 1 << 20
    SimulationConfig(sequence=at_budget)
    with pytest.raises(ValueError, match=r"unrolls to 1.05e\+06 pulses and"):
        SimulationConfig(sequence=PulseProgram((*at_budget.items, pulse)))
    xy8 = expand_preset("xy8", 64)
    assert _unrolled_length(xy8.items) == 2 + 64 * len(xy8.items[1].block)
    SimulationConfig(sequence=xy8)


def test_simulation_config_refuses_groups_past_the_byte_budget(monkeypatch):
    # 16 B x D x max(D, 2^g T): the default P1 run (D = 48, 2^3 x 150 taus)
    # takes 921,600 bytes, and the bound is inclusive
    grid = tuple(np.linspace(0.0, 30e-6, 150))
    monkeypatch.setattr(dynamics, "_MAX_GROUP_BYTES", 921_600)
    SimulationConfig(tau_grid=grid)
    # at one tau the D x D Hamiltonian outweighs the slab (g = 6: 2.4 MB
    # against 0.39 MB), and a group holds no more than the bath's spins
    with pytest.raises(ValueError, match="g = 6 spins"):
        SimulationConfig(g=6, n_spins=6, tau_grid=(0.0,))
    SimulationConfig(g=6, n_spins=4, tau_grid=(0.0,))  # D = 96: 147,456 B
    monkeypatch.setattr(dynamics, "_MAX_GROUP_BYTES", 921_599)
    with pytest.raises(ValueError, match=r"g = 3 spins has dimension D = 48:"
                       r" with T = 150 taus .* 9.22e\+05 bytes"):
        SimulationConfig(tau_grid=grid)
    monkeypatch.undo()
    # at g = 12 one P1 Hamiltonian alone is 9 GiB; a group of 40 spins or
    # 2^1000 levels is refused too, without a float to hold it
    for g in (12, 40, 1000):
        with pytest.raises(ValueError, match=f"g = {g} spins"):
            SimulationConfig(g=g, n_spins=1000)
    SimulationConfig(g=8, tau_grid=grid)  # 944 MB


def test_simulation_config_refuses_phases_fp64_cannot_resolve():
    # a literal 1e300 us leaves the phase argument no digits, even at tau = 0
    prog = parse_sequence("pi/2(x) - 1e300us - pi/2(x)")
    for central in (P1Center(), P1Center(m_i=None), NVCenter(),
                    BareElectron()):
        with pytest.raises(ValueError, match="no longer resolves"):
            SimulationConfig(central=central, sequence=prog,
                             tau_grid=(0.0, 1e-6))
    # the NV is 3.1 GHz wide at 72 G, so a Hahn echo (2 tau in all) meets
    # the 2^33 rad bound near tau = 0.22 s
    SimulationConfig(central=NVCenter(), tau_grid=(0.0, 0.2))
    with pytest.raises(ValueError, match="no longer resolves"):
        SimulationConfig(central=NVCenter(), tau_grid=(0.0, 0.3))
    # at 1e150 G the Zeeman term is finite and the phase is not resolved;
    # near the field's bound the NV's width is inf, and at tau = 0 its
    # phase inf x 0 is NaN: refused too
    for b, grid in ((1e150, (0.0, 1e-6)), (6.4e301, (0.0,))):
        with pytest.raises(ValueError, match="no longer resolves"):
            SimulationConfig(central=NVCenter(), b_field=b, tau_grid=grid)


def test_each_bath_is_built_when_its_row_is_computed(monkeypatch):
    events = []
    generate, echo = bathgen.generate_bath, dynamics._echo
    monkeypatch.setattr(bathgen, "generate_bath", lambda *args, **kwargs:
                        events.append("bath") or generate(*args, **kwargs))
    monkeypatch.setattr(dynamics, "_echo", lambda *args, **kwargs:
                        events.append("row") or echo(*args, **kwargs))
    config = SimulationConfig(n_spins=6, n_baths=3, tau_grid=(0.0, 5e-6))
    ensemble_signal(config)
    assert events == ["bath", "row"] * 3
    # a scan builds each bath once and computes its row at every field
    # before the next bath is built
    events.clear()
    field_scan(config, [60.0, 72.0])
    assert events == ["bath", "row", "row"] * 3


def _count_set_up(monkeypatch) -> dict:
    """Counts of the calls that set an echo up: eigh and eigvalsh of one
    (2-D) matrix, the central spin's, compile_schedule and _plans."""
    counts = dict.fromkeys(("eigh", "eigvalsh", "compile", "plans"), 0)

    def counted(name, fn, central_only=False):
        def wrapper(*args, **kwargs):
            if not central_only or np.ndim(args[0]) == 2:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(
            name, getattr(np.linalg, name), central_only=True))
    monkeypatch.setattr(pulses, "compile_schedule",
                        counted("compile", pulses.compile_schedule))
    monkeypatch.setattr(dynamics, "_plans", counted("plans", dynamics._plans))
    return counts


_THERMAL_RUN = dict(central=P1Center(m_i=None), n_spins=20,
                    tau_grid=tuple(np.linspace(0.0, 30e-6, 20)))


def test_an_ensemble_is_set_up_once(monkeypatch):
    # one central eigh serves the config's check and every bath's three
    # projections; the program is planned once, not once a bath
    counts = _count_set_up(monkeypatch)
    ensemble_signal(SimulationConfig(n_baths=20, **_THERMAL_RUN))
    assert (counts["eigh"], counts["eigvalsh"], counts["plans"]) == (1, 0, 1)


def test_a_scan_is_set_up_once_per_field(monkeypatch):
    # one central eigh per field; the program is planned on the tau grid
    # once for every field, and nothing compiles a schedule
    counts = _count_set_up(monkeypatch)
    fields = np.linspace(40.0, 110.0, 8)
    config = SimulationConfig(n_baths=4, b_field=fields[0], **_THERMAL_RUN)
    field_scan(config, fields)
    assert (counts["eigh"], counts["eigvalsh"], counts["plans"]) == (8, 0, 1)
    assert counts["compile"] == 0


def test_derived_probes_stay_out_of_the_config_identity():
    config = SimulationConfig(**_THERMAL_RUN)
    again = SimulationConfig(**_THERMAL_RUN)
    assert len(config.probes) == 3 and config.probes is not again.probes
    assert config == again and hash(config) == hash(again)
    assert "probes" not in repr(config)
    assert "probes" not in json.dumps(config.describe())
    # a derived config derives its own
    moved = replace(config, b_field=(0.0, 0.0, 40.0))
    assert moved != config
    assert not np.array_equal(moved.probes[0][1][0], config.probes[0][1][0])


# The bits of each bond axis that every output has been computed with: the
# off-axis vectors divided by their norm (which moves off-axis-1 and -2).
_JT_AXIS_BITS = {
    "on-axis": ("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
    "off-axis-1": ("0x1.e2b7dddfefa67p-1", "0x0.0p+0",
                   "-0x1.5555555555556p-2"),
    "off-axis-2": ("-0x1.e2b7dddfefa63p-2", "0x1.a20bd700c2c3fp-1",
                   "-0x1.5555555555556p-2"),
    "off-axis-3": ("-0x1.e2b7dddfefa6ep-2", "-0x1.a20bd700c2c3cp-1",
                   "-0x1.5555555555555p-2"),
}


def test_config_describe_round_trips_to_json():
    config = SimulationConfig(central=P1Center(m_i=None),
                              sequence=expand_preset("cpmg", 2))
    info = json.loads(json.dumps(config.describe()))
    assert info["schema_version"] == 3
    assert info["central"]["type"] == "P1Center"
    assert info["central"]["m_i"] is None
    assert info["central"]["jt_label"] == "off-axis-1"
    assert info["sequence"] == "pi/2(x) - [tau - pi(y) - tau]^2 - pi/2(x)"
    assert info["sequence_name"] == "cpmg"
    assert [info["central"][key] for key in (
        "gamma_e_mhz_per_g", "a_par_mhz", "a_perp_mhz", "q_mhz")] == \
        [GAMMA_E_MHZ_PER_G, A_PAR_MHZ, A_PERP_MHZ, Q_N14_MHZ]
    nv = json.loads(json.dumps(SimulationConfig(central=NVCenter()).describe()))
    assert nv["central"] == {"type": "NVCenter", "levels": [0, -1],
                             "d_zfs_mhz": D_NV_MHZ,
                             "gamma_e_mhz_per_g": GAMMA_E_MHZ_PER_G}
    electron = SimulationConfig(central=BareElectron()).describe()
    assert electron["central"] == {"type": "BareElectron",
                                   "gamma_e_mhz_per_g": GAMMA_E_MHZ_PER_G}
    for label, bits in _JT_AXIS_BITS.items():
        p1 = SimulationConfig(central=P1Center(jt=JtOrientation(label)))
        axis = json.loads(json.dumps(p1.describe()))["central"]["jt_axis"]
        assert tuple(map(float.hex, axis)) == bits, label


def test_echo_curve_refuses_a_nan_signal():
    with pytest.raises(ValueError, match="signal outside"):
        EchoCurve(tau=(0.0, 1e-6), signal=(1.0, math.nan))


def test_echo_curve_validation_and_serialization():
    with pytest.raises(ValueError):
        EchoCurve(tau=(0.0, 1e-6), signal=(1.0,))
    with pytest.raises(ValueError):
        EchoCurve(tau=(0.0,), signal=(1.5,))
    with pytest.raises(ValueError):
        EchoCurve(tau=(0.0, 1e-6), signal=(1.0, 0.5), per_bath=((1.0,),))

    curve = EchoCurve(tau=(0.0, 2e-6), signal=(1.0, -0.25),
                      per_bath=((1.0, -0.5), (1.0, 0.0)),
                      metadata={"b_field_gauss": [0.0, 0.0, 72.0]})
    assert curve.tau_us == pytest.approx((0.0, 2.0))

    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "tau_us,signal"
    assert [float(x) for x in lines[2].split(",")] == [2.0, -0.25]

    wide = curve.to_csv(include_baths=True)
    header = wide.strip().split("\n")[0].split(",")
    assert header == ["tau_us", "signal", "bath_00", "bath_01"]

    payload = json.loads(json.dumps(curve.to_dict()))
    assert payload["tau_us"] == [0.0, 2.0]
    assert payload["signal"] == [1.0, -0.25]
    assert payload["per_bath"] == [[1.0, -0.5], [1.0, 0.0]]
    assert payload["metadata"]["b_field_gauss"] == [0.0, 0.0, 72.0]


def test_parsed_and_preset_sequences_give_identical_dynamics():
    group = Bath([_spin(0.5, 0.3, 0.2)])
    text = parse_sequence("pi/2(x) - tau - pi(x) - tau - pi/2(x)")
    for tau in (3e-6, 9e-6):
        a = group_signal(P1Center(), group, text, tau, 72.0)
        b = group_signal(P1Center(), group, expand_preset("hahn"), tau, 72.0)
        assert a == b


# The disjoint-cluster product against exact evolution: the 6 nearest
# carbons of the ensemble's first two baths (master seed 0), 21 taus over
# 0-30 us at 72 G.  The exact echo passes all 6 carbons to _echo as one
# group.  Each entry is the largest |S_disjoint - S_exact| over the two
# baths and the taus at the given g, as measured; bath 0 holds a
# first-shell carbon, which sets most of the maxima.
_DISJOINT_ERROR = {
    ("p1", "hahn"): {1: 2.734e-2, 2: 2.562e-2, 3: 2.396e-3},
    ("p1", "xy8-2"): {1: 9.186e-2, 2: 9.115e-2, 3: 3.636e-2},
    ("nv", "hahn"): {1: 7.038e-2, 2: 7.021e-2, 3: 7.551e-4},
    ("nv", "xy8-2"): {1: 7.208e-1, 2: 7.208e-1, 3: 9.018e-3},
}
_DISJOINT_MARGIN = 0.01  # relative, above the 4 digits kept


@pytest.mark.parametrize("central,sequence", list(_DISJOINT_ERROR))
def test_disjoint_cluster_error_against_exact_evolution(central, sequence):
    spec = P1Center() if central == "p1" else NVCenter()
    program = (expand_preset("hahn") if sequence == "hahn"
               else expand_preset("xy8", 2))
    taus = np.linspace(0.0, 30e-6, 21)
    errors = dict.fromkeys(_DISJOINT_ERROR[central, sequence], 0.0)
    for index in (0, 1):
        bath = generate_bath(child_seed(0, index), n_spins=6)
        setup = _setup(spec, program, taus, range(1, 7))
        exact = _echo(setup, bath, [range(len(bath))])
        for g in errors:
            groups = cluster_bath(bath, g).groups
            disjoint = _echo(setup, bath, groups)
            errors[g] = max(errors[g], np.abs(disjoint - exact).max())
    for g, measured in _DISJOINT_ERROR[central, sequence].items():
        assert errors[g] <= measured * (1.0 + _DISJOINT_MARGIN), (g, errors)
        # the error is real, and larger groups shrink it
        assert errors[g] >= measured * (1.0 - _DISJOINT_MARGIN), (g, errors)
    assert errors[3] < errors[1]
