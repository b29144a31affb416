"""Physical constants, unit conventions and the input rules of every module.

Units
-----
    magnetic field      gauss (G)
    gyromagnetic ratio  Hz/G (the electron's also in MHz/G, the common
                        notation, which run metadata records)
    energy / coupling   ordinary frequency, Hz (every Hamiltonian is E/h;
                        the factor 2*pi is supplied by the propagator)
    distance            nm
    time                seconds internally, microseconds at I/O boundaries

Sign conventions
----------------
Gyromagnetic ratios are stored with their physical sign (negative for the
electron).  Zeeman terms are assembled as ``-gamma * B . S`` so that for a
negative-gamma species the m = +s projection lies above m = -s in energy.
The electron value carries the g ~ 2.0024 correction rather than the
rounded 2.8 MHz/G shorthand; transition frequencies computed at the
gauss-level field calibrations used elsewhere in the package depend on
that last 0.1%.

Sources
-------
The two SI constants of the point-dipole prefactor are pinned literals, not
read from an installed library, so results do not depend on its version:
the vacuum permeability is the CODATA 2022 value and the Planck constant is
exact in the 2019 SI.
"""

from __future__ import annotations

import math
import numbers

# gyromagnetic ratios
GAMMA_E_MHZ_PER_G = -2.8025  # electron, g ~ 2.0024
GAMMA_E_HZ_PER_G = GAMMA_E_MHZ_PER_G * 1e6
GAMMA_N14_HZ_PER_G = 307.7  # substitutional-nitrogen 14N nucleus
GAMMA_C13_HZ_PER_G = 1071.5  # 13C nucleus

# substitutional nitrogen (S = 1/2 electron, I = 1 nitrogen) hyperfine and
# quadrupole parameters, principal axis along the distorted N-C bond
A_PAR_MHZ = 114.0
A_PERP_MHZ = 81.34
Q_N14_MHZ = -4.2

# nitrogen-vacancy ground-state zero-field splitting
D_NV_MHZ = 2870.0

# diamond crystal
DIAMOND_LATTICE_NM = 0.3567
DIAMOND_BOND_NM = DIAMOND_LATTICE_NM * math.sqrt(3.0) / 4.0  # 0.15444 nm
DIAMOND_ATOM_DENSITY_CM3 = 1.76e23
DIAMOND_ATOM_DENSITY_NM3 = DIAMOND_ATOM_DENSITY_CM3 * 1e-21  # 176 nm^-3
C13_ABUNDANCE = 0.011

# instantaneous-diffusion calibration: concentration [ppm] = KAPPA / T_D [us]
KAPPA_ID_PPM_US = 14.0

# SI values feeding the point-dipole prefactor
MU0_SI = 1.25663706127e-06  # T^2 m^3 / J, CODATA 2022
PLANCK_SI = 6.62607015e-34  # J s, exact in the 2019 SI


def as_count(value, name: str, least: float = 1) -> int:
    """The count rule: value, a Python or numpy integer (no bool, no float)
    of at least `least` (-inf: any), as an int; else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        bound = "" if least == -math.inf else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, not {value}")
    return int(value)


def as_quantity(value, message: str, least: float = -math.inf) -> float:
    """The quantity rule: value, or value() of a closed form in Python floats
    (which saturate or raise where numpy scalars warn), as a finite float of
    at least `least`; else, or where float() refuses it (None, a string that
    is no number) or value() raises OverflowError or ZeroDivisionError,
    ValueError(message)."""
    try:
        x = float(value() if callable(value) else value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        x = math.nan
    if not (x >= least and math.isfinite(x)):  # NaN too
        raise ValueError(message)
    return x


def dipole_prefactor_hz(gamma1_hz_per_g: float, gamma2_hz_per_g: float,
                        r_nm: float) -> float:
    """Point-dipole coupling scale (mu0 h / 4 pi) g1 g2 / r^3 in Hz.

    Gyromagnetic ratios in Hz/G (signed), separation in nm.  This is the
    scalar multiplying the dimensionless (1 - 3 rhat rhat) tensor when the
    Hamiltonian is expressed in ordinary-frequency units.
    """
    msg = f"separation must be positive, with a float cube: {float(r_nm)!r} nm"
    g1 = float(gamma1_hz_per_g) * 1e4  # Hz/T; as floats, which raise or
    g2 = float(gamma2_hz_per_g) * 1e4  # saturate where numpy scalars warn
    r = as_quantity(r_nm, msg, 0.0) * 1e-9
    # r^3 in m^3 overflows, or underflows to 0
    return as_quantity(
        lambda: MU0_SI * PLANCK_SI * g1 * g2 / (4.0 * math.pi * r ** 3), msg)


def ppm_to_density_nm3(ppm: float) -> float:
    """Defect concentration in ppm of carbon sites to number density in nm^-3."""
    return ppm * 1e-6 * DIAMOND_ATOM_DENSITY_NM3


def constants_table() -> dict:
    """Audit table of every physical constant, with units, for file output."""
    rows = [  # name, value, units, description
        ("gamma_e_mhz_per_gauss", GAMMA_E_MHZ_PER_G, "MHz/G",
         "electron gyromagnetic ratio (signed, g ~ 2.0024)"),
        ("gamma_n14_hz_per_gauss", GAMMA_N14_HZ_PER_G, "Hz/G",
         "14N nuclear gyromagnetic ratio"),
        ("gamma_c13_hz_per_gauss", GAMMA_C13_HZ_PER_G, "Hz/G",
         "13C nuclear gyromagnetic ratio"),
        ("a_parallel_mhz", A_PAR_MHZ, "MHz",
         "axial 14N hyperfine constant of the nitrogen center"),
        ("a_perp_mhz", A_PERP_MHZ, "MHz", "transverse 14N hyperfine constant"),
        ("q_n14_mhz", Q_N14_MHZ, "MHz", "14N quadrupole constant"),
        ("d_nv_mhz", D_NV_MHZ, "MHz", "NV ground-state zero-field splitting"),
        ("diamond_lattice_nm", DIAMOND_LATTICE_NM, "nm",
         "conventional diamond cubic lattice constant"),
        ("diamond_bond_nm", DIAMOND_BOND_NM, "nm",
         "nearest-neighbor bond length, a sqrt(3)/4"),
        ("diamond_atom_density_cm3", DIAMOND_ATOM_DENSITY_CM3, "cm^-3",
         "carbon site density used for ppm conversions"),
        ("c13_abundance", C13_ABUNDANCE, "1",
         "natural 13C isotopic abundance"),
        ("kappa_id_ppm_us", KAPPA_ID_PPM_US, "ppm*us",
         "instantaneous-diffusion calibration for concentration_from_td "
         "(ppm = kappa / T_D)"),
        ("mu0_si", MU0_SI, "T^2 m^3 / J", "vacuum permeability (CODATA 2022)"),
        ("planck_si", PLANCK_SI, "J s",
         "Planck constant (exact in the 2019 SI)"),
    ]
    return {name: {"value": value, "units": units, "description": text}
            for name, value, units, text in rows}
