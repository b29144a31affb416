import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath
import spinbath.pulses as pulses
from oracles import total_time
from spinbath.pulses import (
    AXIS_VECTORS,
    Delay,
    ParseError,
    Pulse,
    PulseProgram,
    Repeat,
    canonical_text,
    compile_schedule,
    expand_preset,
    parse_sequence,
    two_level_unitary,
)


def test_parse_hahn_text_matches_preset():
    prog = parse_sequence("pi/2(x) - tau - pi(x) - tau - pi/2(x)")
    assert prog == expand_preset("hahn")


def test_parse_is_case_and_whitespace_insensitive():
    a = parse_sequence("PI/2(X)-TAU-PI(Y)-TAU-PI/2(X)")
    b = parse_sequence("pi/2 ( x ) - tau - pi ( y ) - tau - pi/2( x )")
    assert a == b


def test_parse_literal_delays_and_angles():
    prog = parse_sequence("30deg(-y) - 1.5us - 20ns - 2e-6s")
    p, d1, d2, d3 = prog.items
    assert p == Pulse(axis="-y", angle_deg=30.0)
    assert (d1.value, d1.unit) == (1.5, "us")
    assert (d2.value, d2.unit) == (20.0, "ns")
    assert (d3.value, d3.unit) == (2e-6, "s")
    assert d1.duration_s() == pytest.approx(1.5e-6)


def test_parse_fractional_symbolic_delay():
    prog = parse_sequence("tau/2 - pi(x) - tau/2")
    assert prog.items[0] == Delay(divisor=2)
    assert prog.items[0].duration_s(4e-6) == pytest.approx(2e-6)


def test_parse_repeat_and_target():
    prog = parse_sequence("pi/2(x) - [tau - pi(y) - tau]^3 - pi(x)")
    rep = prog.items[1]
    assert isinstance(rep, Repeat) and rep.count == 3
    # every pulse drives the probed pair; there is no target suffix
    with pytest.raises(ParseError, match=r"unexpected character '@' at 1:6"):
        parse_sequence("pi(x)@target")


def test_end_of_input_is_placed_after_the_last_token():
    for text, where in (("pi(x) -", "1:8"), ("[pi(x) - ", "1:9"),
                        ("pi(x) - tau -\n  tau -", "2:8")):
        with pytest.raises(ParseError, match=f"unexpected end of input at"
                                              f" {where}$"):
            parse_sequence(text)


def test_parse_error_positions():
    with pytest.raises(ParseError, match=r"unknown axis 'z' at 1:4"):
        parse_sequence("pi(z)")
    with pytest.raises(ParseError, match=r"at 1:1"):
        parse_sequence("")
    with pytest.raises(ParseError, match=r"2:1"):
        parse_sequence("pi(x) -\nbogus(y)")
    with pytest.raises(ParseError, match=r"repeat count must be an integer of"
                                         r" at least 1, not 0 at 1:7$"):
        parse_sequence("[tau]^0")
    with pytest.raises(ParseError, match=r"tau divisor must be at most"
                                         r" 1.8e308, the largest float at 2:6$"):
        parse_sequence("pi(x) -\n tau/1" + "0" * 400)
    with pytest.raises(ParseError, match=r"unexpected end of input"):
        parse_sequence("pi(x) - tau -")
    with pytest.raises(ParseError, match=r"unexpected token"):
        parse_sequence("pi(x) pi(y)")
    with pytest.raises(ParseError, match=r"unknown unit"):
        parse_sequence("3ms")
    with pytest.raises(ParseError, match=r"expected a unit or 'deg'"):
        parse_sequence("42")
    with pytest.raises(ParseError, match=r"angle must lie in"):
        parse_sequence("400deg(x)")
    with pytest.raises(ParseError, match=r"unexpected character"):
        parse_sequence("pi(x) + tau")


def test_non_finite_literal_delay_is_refused():
    # 1e400 overflows to inf, which would print as 'infus'
    with pytest.raises(ParseError, match=r"delay must be finite at 1:11"):
        parse_sequence("pi/2(x) - 1e400us - pi/2(x)")
    with pytest.raises(ParseError, match=r"delay must be finite at 2:3"):
        parse_sequence("pi/2(x) -\n  1e400ns - pi/2(x)")
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delays must be finite"):
            Delay(value=value, unit="us")


def test_item_validation():
    with pytest.raises(ValueError):
        Pulse(axis="z", angle_deg=90.0)
    with pytest.raises(ValueError):
        Pulse(axis="x", angle_deg=0.0)
    with pytest.raises(ValueError):
        Delay(value=-1.0, unit="us")
    with pytest.raises(ValueError):
        Delay(value=1.0, unit="min")
    with pytest.raises(ValueError):
        Delay(value=1.0, unit="us", divisor=2)
    with pytest.raises(ValueError):
        Delay(divisor=0)
    with pytest.raises(ValueError):
        Repeat(block=(), count=2)
    with pytest.raises(ValueError):
        Repeat(block=(Delay(),), count=0)
    with pytest.raises(ValueError):
        Repeat(block=(Delay(),), count=True)


def test_program_equality_ignores_metadata():
    items = (Pulse(axis="x", angle_deg=90.0),)
    assert PulseProgram(items, name="a") == PulseProgram(items)
    assert hash(PulseProgram(items, name="a")) == hash(PulseProgram(items))
    assert PulseProgram(items) != PulseProgram(
        (Pulse(axis="y", angle_deg=90.0),))


# --- canonical printer -------------------------------------------------------

def _random_program(rng, depth=0) -> PulseProgram:
    def item():
        kind = rng.integers(0, 4 if depth < 2 else 3)
        if kind == 0:
            angle = float(rng.choice([90.0, 180.0, rng.uniform(1.0, 360.0)]))
            axis = str(rng.choice(["x", "y", "-x", "-y"]))
            return Pulse(axis=axis, angle_deg=angle)
        if kind == 1:
            return Delay(divisor=int(rng.integers(1, 5)))
        if kind == 2:
            unit = str(rng.choice(["us", "ns", "s"]))
            return Delay(value=float(rng.uniform(0.0, 30.0)), unit=unit)
        block = _random_program(rng, depth + 1).items
        return Repeat(block=block, count=int(rng.integers(1, 4)))

    return PulseProgram(items=tuple(item() for _ in range(rng.integers(1, 6))))


def test_canonical_text_round_trips_random_programs():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        prog = _random_program(rng)
        text = canonical_text(prog)
        again = parse_sequence(text)
        assert again == prog, text
        # printing is a fixed point
        assert canonical_text(again) == text


_pulses = st.builds(Pulse, axis=st.sampled_from(["x", "y", "-x", "-y"]),
                    angle_deg=st.floats(0.0, 360.0, exclude_min=True))
_symbolic_delays = st.builds(Delay, divisor=st.integers(1, 1000))
_units = st.sampled_from(["us", "ns", "s"])
_leaf_items = st.one_of(
    _pulses, _symbolic_delays,
    st.builds(Delay, value=st.just(-0.0) | st.floats(min_value=0.0,
                                                     allow_infinity=False),
              unit=_units),
)
_items = st.recursive(
    _leaf_items,
    lambda inner: st.builds(Repeat, block=st.lists(inner, min_size=1,
                                                   max_size=4),
                            count=st.integers(1, 1000)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(items=st.lists(_items, min_size=1, max_size=6))
def test_canonical_text_round_trips_drawn_programs(items):
    prog = PulseProgram(items=tuple(items))
    text = canonical_text(prog)
    again = parse_sequence(text)
    assert again == prog, text
    assert canonical_text(again) == text


def test_negative_zero_delay_round_trips():
    # -0.0 passes the non-negative check; it is stored, and so printed, as 0.0
    delay = Delay(value=-0.0, unit="us")
    assert math.copysign(1.0, delay.value) == 1.0
    prog = PulseProgram(items=(Pulse("x", 90.0), delay, Pulse("x", 90.0)))
    text = canonical_text(prog)
    assert "-0.0" not in text
    assert parse_sequence(text) == prog


# Programs that compile quickly: few repeats and bounded literal delays.
_timed_items = st.recursive(
    st.one_of(_pulses, _symbolic_delays,
              st.builds(Delay, value=st.floats(0.0, 1e3), unit=_units)),
    lambda inner: st.builds(Repeat, block=st.lists(inner, min_size=1,
                                                   max_size=4),
                            count=st.integers(1, 3)),
    max_leaves=10)


def _unrolled_delays(items, tau):
    for item in items:
        if isinstance(item, Delay):
            yield item.duration_s(tau)
        elif isinstance(item, Repeat):
            for _ in range(item.count):
                yield from _unrolled_delays(item.block, tau)


@settings(max_examples=200, deadline=None)
@given(items=st.lists(_timed_items, min_size=1, max_size=6),
       tau=st.floats(0.0, 1e-3))
def test_compiled_intervals_sum_to_the_unrolled_delays(items, tau):
    schedule = compile_schedule(PulseProgram(items=tuple(items)), tau)
    assert all(type(d) is float and d > 0.0 for d in _intervals(schedule))
    # merging adds the delays of a run in another order than one sum does
    assert total_time(schedule) == pytest.approx(
        math.fsum(_unrolled_delays(items, tau)), rel=1e-9, abs=0.0)


def test_canonical_text_spellings():
    prog = parse_sequence("pi/2(x)-tau/2-[180deg(y)-tau]^2-pi(-y)-2.5us")
    assert canonical_text(prog) == (
        "pi/2(x) - tau/2 - [pi(y) - tau]^2 - pi(-y) - 2.5us")


@pytest.mark.parametrize("name,n,pi_count", [
    ("hahn", None, 1), ("cpmg", 1, 1), ("cpmg", 4, 4),
    ("xy8", 1, 8), ("xy8", 2, 16),
])
def test_preset_pi_pulse_counts(name, n, pi_count):
    prog = expand_preset(name, n)
    sched = compile_schedule(prog, tau=1e-6)
    pis = [r for r in _pulses(sched) if r.angle_deg == 180.0]
    halves = [r for r in _pulses(sched) if r.angle_deg == 90.0]
    assert len(pis) == pi_count
    assert len(halves) == 2


def test_preset_validation():
    with pytest.raises(ValueError):
        expand_preset("hahn", 2)
    with pytest.raises(ValueError):
        expand_preset("cpmg", True)
    with pytest.raises(ValueError):
        expand_preset("cpmg", 0)
    with pytest.raises(ValueError):
        expand_preset("ramsey")


def test_xy8_axis_order():
    sched = compile_schedule(expand_preset("xy8"), tau=1e-6)
    axes = [r.axis for r in _pulses(sched) if r.angle_deg == 180.0]
    assert axes == ["x", "y", "x", "y", "y", "x", "y", "x"]


# --- schedule compilation ----------------------------------------------------

def _pulses(schedule) -> list:
    return [e for e in schedule if isinstance(e, Pulse)]


def _intervals(schedule) -> list:
    return [e for e in schedule if not isinstance(e, Pulse)]


def test_hahn_schedule_total_time():
    sched = compile_schedule(expand_preset("hahn"), tau=3e-6)
    assert total_time(sched) == pytest.approx(6e-6)
    assert len(_pulses(sched)) == 3


def test_cpmg_spacing_merges_across_block_edges():
    # [tau - pi - tau]^n gives the tau, 2tau, ..., 2tau, tau spacing
    sched = compile_schedule(expand_preset("cpmg", 3), tau=1e-6)
    assert _intervals(sched) == pytest.approx([1e-6, 2e-6, 2e-6, 1e-6])
    assert total_time(sched) == pytest.approx(6e-6)


def test_xy8_schedule_spacing():
    sched = compile_schedule(expand_preset("xy8", 2), tau=2e-6)
    intervals = _intervals(sched)
    # half-delays at the outer edges, merged full delay at the block seam
    assert intervals[0] == pytest.approx(1e-6)
    assert intervals[-1] == pytest.approx(1e-6)
    assert all(d == pytest.approx(2e-6) for d in intervals[1:-1])
    assert total_time(sched) == pytest.approx(32e-6)


def test_total_time_is_linear_in_tau():
    prog = expand_preset("xy8", 3)
    times = [total_time(compile_schedule(prog, tau=t)) for t in (1e-6, 2e-6, 5e-6)]
    # slope is the number of tau units (8 per block), intercept zero
    assert times[0] == pytest.approx(24e-6)
    assert times[2] - times[1] == pytest.approx(3 * (times[1] - times[0]))


def test_zero_tau_drops_intervals():
    sched = compile_schedule(expand_preset("hahn"), tau=0.0)
    assert sched == tuple(_pulses(sched))
    assert total_time(sched) == 0.0


def test_literal_delays_merge_with_symbolic():
    prog = parse_sequence("tau - 1us - pi(x)")
    sched = compile_schedule(prog, tau=2e-6)
    assert sched == (pytest.approx(3e-6), Pulse("x", 180.0))


def test_the_program_is_the_one_sequence_type():
    # compile_schedule flattens a program at one tau into plain events; the
    # package exports programs only
    assert not any(hasattr(pulses, name) for name in ("Schedule", "Interval"))
    assert not {"Schedule", "Interval", "compile_schedule"} & set(
        spinbath.__all__)
    assert compile_schedule(expand_preset("hahn"), 1e-6) == (
        Pulse("x", 90.0), 1e-6, Pulse("x", 180.0), 1e-6, Pulse("x", 90.0))


def test_symbolic_delay_requires_tau():
    with pytest.raises(ValueError):
        compile_schedule(expand_preset("hahn"))
    with pytest.raises(ValueError):
        compile_schedule(expand_preset("hahn"), tau=-1e-6)
    # purely literal programs need no tau
    sched = compile_schedule(parse_sequence("pi(x) - 5us - pi(y)"))
    assert total_time(sched) == pytest.approx(5e-6)


def _net_unitary(schedule) -> np.ndarray:
    # spectator-free composition: delays are identity for a bare two-level
    # system at zero field, so only rotations matter
    u = np.eye(2, dtype=complex)
    for event in schedule:
        if isinstance(event, Pulse):
            u = two_level_unitary(event.axis, event.angle_rad) @ u
    return u


def test_preset_zero_field_composition():
    # with no Hamiltonian the echo sequences compose to +/- a pi/2-like net
    # rotation; check against direct matrix products of ideal pulses
    for name, n in [("hahn", None), ("cpmg", 2), ("xy8", 1)]:
        sched = compile_schedule(expand_preset(name, n), tau=0.0)
        u = _net_unitary(sched)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        # population starting in level 0 returns to a definite level
        pop = np.abs(u[:, 0]) ** 2
        assert max(pop) == pytest.approx(1.0, abs=1e-12)


def test_rotation_angle_radians():
    rot = Pulse(axis="y", angle_deg=90.0)
    assert rot.angle_rad == pytest.approx(np.pi / 2.0)


@pytest.mark.parametrize("axis,expect", [
    ("x", (1.0, 0.0)), ("y", (0.0, 1.0)), ("-x", (-1.0, 0.0)), ("-y", (0.0, -1.0)),
])
def test_axis_labels(axis, expect):
    assert AXIS_VECTORS[axis] == expect


def test_two_level_unitary_pi_pulses():
    ux = two_level_unitary("x", np.pi)
    assert np.allclose(ux, [[0, -1j], [-1j, 0]], atol=1e-12)
    uy = two_level_unitary("y", np.pi)
    assert np.allclose(uy, [[0, -1], [1, 0]], atol=1e-12)
    # -x rotation is the inverse of +x
    assert np.allclose(two_level_unitary("-x", 0.7) @ two_level_unitary("x", 0.7),
                       np.eye(2), atol=1e-12)


def test_two_level_unitary_composition():
    # two pi/2 pulses about the same axis make a pi pulse
    u = two_level_unitary("y", np.pi / 2)
    assert np.allclose(u @ u, two_level_unitary("y", np.pi), atol=1e-12)


def test_two_level_unitary_rejects_bad_axis():
    with pytest.raises(ValueError):
        two_level_unitary("z", np.pi)
