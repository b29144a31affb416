import dataclasses
import functools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import constants as si

from oracles import density_nm3_to_ppm
from spinbath import constants as c
from spinbath.analysis import mean_kth_distance
from spinbath import bathgen
from spinbath.bathgen import check_bath_parameters, cluster_bath, generate_bath
from spinbath.dynamics import SimulationConfig
from spinbath.hamiltonians import NVCenter, P1Center
from spinbath.pulses import (Delay, PulseProgram, Repeat, canonical_text,
                             expand_preset)


def test_bond_length_is_quarter_body_diagonal():
    assert c.DIAMOND_BOND_NM == pytest.approx(
        c.DIAMOND_LATTICE_NM * math.sqrt(3.0) / 4.0, rel=0, abs=0)
    assert c.DIAMOND_BOND_NM == pytest.approx(0.154456, abs=5e-6)


def test_pinned_si_constants_match_codata():
    # h is exact in the 2019 SI; mu_0 moved by 6.8e-10 relative between
    # CODATA 2018 (scipy < 1.15) and CODATA 2022, so either is accepted
    assert c.PLANCK_SI == si.h
    assert c.MU0_SI == pytest.approx(si.mu_0, rel=1e-9, abs=0)


def test_electron_gamma_matches_free_electron_g_factor():
    # g ~ 2.0024 gives 2.8026 MHz/G; the rounded 2.8 shorthand is ~0.1% off
    gamma_from_g = 2.0024 * si.physical_constants["Bohr magneton"][0] / si.h
    assert abs(c.GAMMA_E_MHZ_PER_G) * 1e10 == pytest.approx(gamma_from_g, rel=5e-5)
    assert c.GAMMA_E_MHZ_PER_G < 0


def test_dipole_prefactor_electron_electron_anchor():
    # mu0 h gamma_e^2 / (4 pi r^3) at 1 nm is 52.04 MHz
    v = c.dipole_prefactor_hz(c.GAMMA_E_HZ_PER_G, c.GAMMA_E_HZ_PER_G, 1.0)
    assert v == pytest.approx(52.04e6, rel=1e-3)


def test_dipole_prefactor_electron_carbon_anchor():
    v = c.dipole_prefactor_hz(c.GAMMA_E_HZ_PER_G, c.GAMMA_C13_HZ_PER_G, 1.0)
    assert v == pytest.approx(-19.90e3, rel=1e-3)


def test_dipole_prefactor_carbon_pair_at_bond_length():
    v = c.dipole_prefactor_hz(c.GAMMA_C13_HZ_PER_G, c.GAMMA_C13_HZ_PER_G,
                              c.DIAMOND_BOND_NM)
    assert v == pytest.approx(2065.0, rel=3e-3)


def test_dipole_prefactor_agrees_with_si_formula():
    # independent assembly straight from CODATA values
    r_m = 0.71e-9
    g1 = c.GAMMA_E_HZ_PER_G * 1e4
    g2 = c.GAMMA_C13_HZ_PER_G * 1e4
    expect = si.mu_0 * si.h * g1 * g2 / (4.0 * math.pi * r_m ** 3)
    assert c.dipole_prefactor_hz(
        c.GAMMA_E_HZ_PER_G, c.GAMMA_C13_HZ_PER_G, 0.71) == pytest.approx(expect)


def test_dipole_prefactor_scales_inverse_cube():
    v1 = c.dipole_prefactor_hz(1e3, 1e3, 1.0)
    v2 = c.dipole_prefactor_hz(1e3, 1e3, 2.0)
    assert v1 / v2 == pytest.approx(8.0)


def test_dipole_prefactor_rejects_nonpositive_separation():
    with pytest.raises(ValueError):
        c.dipole_prefactor_hz(1e3, 1e3, 0.0)
    with pytest.raises(ValueError):
        c.dipole_prefactor_hz(1e3, 1e3, -1.0)


@pytest.mark.parametrize("r_nm", [1e200, 1e-200, math.nan])
def test_dipole_prefactor_refuses_a_separation_no_float_cube_holds(r_nm):
    # r^3 in m^3 overflows at 1e200 nm and is 0 at 1e-200 nm
    with pytest.raises(ValueError, match="with a float cube"):
        c.dipole_prefactor_hz(c.GAMMA_E_HZ_PER_G, c.GAMMA_E_HZ_PER_G, r_nm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [(1.0, 1.0, 1e200), (1e200, 1e200, 1.0)],
                         ids=["separation", "gammas"])
def test_dipole_prefactor_refuses_numpy_scalars_as_it_refuses_floats(args):
    # a numpy cube overflows with a warning; as floats the power raises
    with pytest.raises(ValueError, match="with a float cube") as as_floats:
        c.dipole_prefactor_hz(*args)
    with pytest.raises(ValueError) as as_numpy:
        c.dipole_prefactor_hz(*map(np.float64, args))
    assert str(as_numpy.value) == str(as_floats.value)


def test_dipole_prefactor_of_numpy_scalars_is_that_of_floats():
    args = (c.GAMMA_E_HZ_PER_G, c.GAMMA_C13_HZ_PER_G, 0.4417)
    want = c.dipole_prefactor_hz(*args)
    got = c.dipole_prefactor_hz(*map(np.float64, args))
    assert type(got) is float and got.hex() == want.hex()


def test_ppm_density_round_trip():
    assert c.ppm_to_density_nm3(1.0) == pytest.approx(1.76e-4)
    for ppm in (0.013, 0.2, 70.0):
        assert density_nm3_to_ppm(c.ppm_to_density_nm3(ppm)) == pytest.approx(ppm)


def test_constants_table_entries_are_complete():
    table = c.constants_table()
    assert set(table) >= {
        "gamma_e_mhz_per_gauss", "gamma_c13_hz_per_gauss", "d_nv_mhz",
        "diamond_lattice_nm", "kappa_id_ppm_us",
    }
    for name, entry in table.items():
        assert set(entry) == {"value", "units", "description"}, name
        assert isinstance(entry["value"], float)


def _config_echo(name, n):
    """The echo of a small config whose count `name` is n."""
    return SimulationConfig(
        **{"n_spins": 4, "tau_grid": (0.0,), name: n}).describe()


# Each count argument of the library, as a call of the count alone whose
# result is JSON: the config's echo, a bath's positions, a partition, a
# program's text, a distance.
_BATH = generate_bath(3, 12)
_COUNT_ENTRIES = {
    **{f"SimulationConfig.{name}": functools.partial(_config_echo, name)
       for name in ("n_baths", "g", "workers", "master_seed", "n_spins")},
    "check_bath_parameters.n_spins": lambda n: check_bath_parameters(n, 0.011),
    "generate_bath.n_spins": lambda n: generate_bath(0, n).positions.tolist(),
    "generate_bath.seed": lambda n: generate_bath(n, 2).positions.tolist(),
    "cluster_bath.g": lambda n: dataclasses.asdict(cluster_bath(_BATH, n)),
    "Repeat.count": lambda n: canonical_text(
        PulseProgram((Repeat((Delay(),), n),))),
    "Delay.divisor": lambda n: canonical_text(
        PulseProgram((Delay(divisor=n),))),
    "expand_preset.n": lambda n: canonical_text(expand_preset("xy8", n)),
    "mean_kth_distance.k": lambda n: mean_kth_distance(1.0, n),
    "P1Center.m_i": lambda n: _config_echo("central", P1Center(m_i=n)),
    "NVCenter.levels": lambda n: _config_echo("central",
                                              NVCenter(levels=(n, -1))),
}

_FLOATS = st.floats() | st.sampled_from([0.0, 1.0, 2.0, 1.5, math.nan,
                                         math.inf, -math.inf])
_COUNTS = (st.integers(-2, 4) | st.sampled_from([171, 172, 2 ** 63, 10 ** 400])
           | st.builds(lambda t, n: t(n), st.sampled_from(
               [np.int8, np.int64, np.uint8, np.uint64]), st.integers(0, 4))
           | st.booleans() | st.booleans().map(np.bool_)
           | _FLOATS | _FLOATS.map(np.float64))


def _outcome(entry, n):
    """The JSON text of the entry's result at n, or its one-line ValueError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return json.dumps(_COUNT_ENTRIES[entry](n))
    except ValueError as err:
        assert str(err) and "\n" not in str(err)
        return err


@settings(max_examples=400, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(_COUNT_ENTRIES)), n=_COUNTS)
@example(entry="generate_bath.n_spins", n=2.5)
@example(entry="cluster_bath.g", n=2.5)
@example(entry="SimulationConfig.g", n=2.5)
@example(entry="mean_kth_distance.k", n=math.inf)
@example(entry="SimulationConfig.workers", n=1.5)
@example(entry="SimulationConfig.master_seed", n=0.5)
@example(entry="SimulationConfig.n_baths", n=True)
@example(entry="expand_preset.n", n=np.int64(2))
@example(entry="Repeat.count", n=np.int64(2))
@example(entry="SimulationConfig.n_baths", n=np.int64(2))
@example(entry="P1Center.m_i", n=True)
@example(entry="P1Center.m_i", n=np.int64(1))
@example(entry="NVCenter.levels", n=0.5)
def test_a_count_is_an_integer_taken_as_an_int_or_refused(entry, n):
    # never a TypeError or an OverflowError: a (numpy) integer gives what
    # the equal int gives, anything else a ValueError
    got = _outcome(entry, n)
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool):
        want = _outcome(entry, int(n))
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, ValueError)


# Each entry that admits a bath's (n_spins, abundance, min_radius), as a
# call whose result is JSON: the admitted values, the positions, the echo
# of a config.
_BATH_ENTRIES = (
    check_bath_parameters,
    lambda *bath: generate_bath(0, *bath).positions.tolist(),
    lambda n, a, r: SimulationConfig(n_spins=n, abundance=a, min_radius=r,
                                     tau_grid=(0.0,)).describe(),
)

# floats of the whole line, float32 and float64 scalars, integers about the
# bounds 0 and 1, and what float() takes or refuses besides
_QUANTITIES = (_FLOATS | st.floats(width=32).map(np.float32)
               | _FLOATS.map(np.float64) | st.integers(-1, 2)
               | st.sampled_from([None, "0.5", "nan", "one", 1j]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n_spins=st.integers(-1, 4) | st.integers(0, 4).map(np.int64),
       abundance=_QUANTITIES, min_radius=_QUANTITIES)
@example(n_spins=5, abundance=np.float32(0.011), min_radius=c.DIAMOND_BOND_NM)
@example(n_spins=5, abundance=c.C13_ABUNDANCE, min_radius=np.float32(0.2))
@example(n_spins=5, abundance=c.C13_ABUNDANCE, min_radius="0.2")
@example(n_spins=5, abundance="0.5", min_radius=c.DIAMOND_BOND_NM)
@example(n_spins=5, abundance=None, min_radius=c.DIAMOND_BOND_NM)
@example(n_spins=5, abundance=c.C13_ABUNDANCE, min_radius=None)
def test_bath_quantities_are_taken_as_floats_or_refused(n_spins, abundance,
                                                        min_radius):
    # never a TypeError: each entry takes the three as an int and two finite
    # floats, its result JSON, or refuses them all with one ValueError line.
    # A budget of 20,000 sites keeps each walk short; its refusal is one of
    # the outcomes.
    outcomes = []
    with mock.patch.object(bathgen, "_MAX_SITES", 20_000):
        for entry in _BATH_ENTRIES:
            try:
                outcomes.append(json.dumps(entry(n_spins, abundance,
                                                 min_radius)))
            except ValueError as err:
                assert str(err) and "\n" not in str(err)
                outcomes.append(str(err))
    if outcomes[0].startswith("["):
        n, a, r = json.loads(outcomes[0])
        assert (n, a, r) == (int(n_spins), float(abundance), float(min_radius))
        positions = np.array(json.loads(outcomes[1]))
        assert len(positions) == n and np.isfinite(positions).all()
        echo = json.loads(outcomes[2])
        assert (echo["abundance"], echo["min_radius_nm"]) == (a, r)
    else:
        assert outcomes == outcomes[:1] * 3
