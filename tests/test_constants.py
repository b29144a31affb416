import math

import numpy as np
import pytest
from scipy import constants as si

from oracles import density_nm3_to_ppm
from spinbath import constants as c


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
