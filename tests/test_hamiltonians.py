import itertools
import math

import numpy as np
import pytest
from scipy import constants as si

import spinbath.dynamics as dynamics
from oracles import (DensityMatrix, embed, evolve, gemm_terms,
                     group_curves_unrolled, group_hamiltonian,
                     p1_hamiltonian_in_frame, projector, rotation,
                     rotation_onto_axis, scalar_dipole_tensor)
from spinbath.bathgen import Bath, generate_bath
from spinbath.constants import (
    GAMMA_C13_HZ_PER_G,
    GAMMA_E_HZ_PER_G,
    GAMMA_N14_HZ_PER_G,
)
from spinbath.hamiltonians import (
    _JT_AXES,
    BareElectron,
    JtOrientation,
    NVCenter,
    P1Center,
    _dense_terms,
    _dipole_tensors,
    _p1_operators,
    build_nv_hamiltonian,
    build_hamiltonian_stack,
    build_p1_hamiltonian,
    build_system_hamiltonian,
    label_levels,
    level_pair,
    spin_operators,
)
from spinbath.pulses import expand_preset, two_level_unitary

# independent spin matrices for oracle assemblies (descending m order)
_SX2 = np.array([[0, 1], [1, 0]], dtype=complex) / 2
_SY2 = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
_SZ2 = np.array([[1, 0], [0, -1]], dtype=complex) / 2
_R2 = math.sqrt(2.0)
_SX3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _R2
_SY3 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _R2
_SZ3 = np.diag([1.0, 0.0, -1.0]).astype(complex)


def test_jt_orientation_axes():
    on = JtOrientation("on-axis")
    assert on.axis == (0.0, 0.0, 1.0)
    for k in (1, 2, 3):
        off = JtOrientation.off_axis(k)
        assert off.label == f"off-axis-{k}"
        assert off.axis[2] == pytest.approx(-1.0 / 3.0)
        assert np.linalg.norm(off.axis) == pytest.approx(1.0)
    # the three off-axis choices are spread 120 degrees apart in azimuth
    a1 = JtOrientation.off_axis(1).axis
    a2 = JtOrientation.off_axis(2).axis
    assert np.dot(a1[:2], a2[:2]) / (8.0 / 9.0) == pytest.approx(-0.5)


@pytest.mark.parametrize("axis", [*_JT_AXES.values(), (0.3, -0.5, 0.8)],
                         ids=[*_JT_AXES, "other"])
def test_p1_hamiltonian_is_the_bond_frame_form(axis):
    # the axial closed form about n = axis / |axis| equals the hyperfine and
    # quadrupole terms written in an explicit bond frame, whose transverse
    # axes are arbitrary, to rounding of entries up to 1.5 GHz
    for b in (72.0, 0.5, 1000.0, (1.5, -2.0, 72.0)):
        h = build_p1_hamiltonian(b, axis)
        assert np.abs(h - p1_hamiltonian_in_frame(b, axis)).max() <= 1e-6
        # whatever sequence type holds the axis
        for same in (np.array(axis), list(axis), tuple(axis)):
            assert build_p1_hamiltonian(b, same).tobytes() == h.tobytes()


def test_jt_orientation_validation():
    with pytest.raises(ValueError):
        JtOrientation("sideways")
    with pytest.raises(ValueError):
        JtOrientation.off_axis(4)


def test_rotation_onto_axis_properties():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        r = rotation_onto_axis(n)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)
        assert np.allclose(r @ [0.0, 0.0, 1.0], n, atol=1e-12)
    # antiparallel axis needs the branch without a rotation axis
    r = rotation_onto_axis([0.0, 0.0, -1.0])
    assert np.allclose(r @ [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_hyperfine_tensor_structure():
    a = _dipole_tensors((0.0, 0.0, 0.8), GAMMA_E_HZ_PER_G,
                        GAMMA_C13_HZ_PER_G)[0]
    assert np.allclose(a, a.T, atol=0)
    assert np.trace(a) == pytest.approx(0.0, abs=1e-9)
    # along z the tensor is diag(c, c, -2c)
    assert a[0, 0] == pytest.approx(a[1, 1])
    assert a[2, 2] == pytest.approx(-2.0 * a[0, 0])
    # 1/r^3
    t2 = _dipole_tensors((0.0, 0.0, 1.6), GAMMA_E_HZ_PER_G,
                         GAMMA_C13_HZ_PER_G)[0]
    assert a[2, 2] / t2[2, 2] == pytest.approx(8.0)
    with pytest.raises(ValueError):
        _dipole_tensors((0.0, 0.0, 0.0), 1e3, 1e3)


def test_p1_operators_are_the_embedded_spin_matrices_bit_for_bit():
    # the six-level space |m_S> (x) |m_I>: electron slot 0, nitrogen slot 1
    for ops, s, slot in zip(_p1_operators(), (0.5, 1.0), (0, 1)):
        for got, op in zip(ops, spin_operators(s)):
            want = embed(op, slot, (2, 3))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_nv_hamiltonian_axial_field_is_analytic():
    # E(m) = D m^2 + |gamma_e| B m for the field along the symmetry axis
    d_hz = 2870.0e6
    for b in (47.0, 72.0, 500.0):
        h = build_nv_hamiltonian(b)
        w = np.sort(np.linalg.eigvalsh(h))
        ge = abs(GAMMA_E_HZ_PER_G)
        expect = np.sort([0.0, d_hz - ge * b, d_hz + ge * b])
        assert np.allclose(w, expect, rtol=1e-12, atol=1e-3)


def test_bare_electron_splitting():
    h = BareElectron().hamiltonian(100.0)
    w = np.linalg.eigvalsh(h)
    assert w[1] - w[0] == pytest.approx(abs(GAMMA_E_HZ_PER_G) * 100.0)


def test_p1_hamiltonian_is_hermitian_and_traceless_in_zeeman():
    h = build_p1_hamiltonian((30.0, -10.0, 65.0),
                             JtOrientation.off_axis(2).axis)
    assert np.abs(h - h.conj().T).max() < 1e-6


def test_p1_spectrum_invariant_under_global_rotation():
    # rotating the field and the bond axis together cannot change physics
    axis = np.array(JtOrientation.off_axis(1).axis)
    b_vec = np.array([0.0, 0.0, 72.0])
    w0 = np.linalg.eigvalsh(build_p1_hamiltonian(b_vec, axis))
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = rng.normal(size=3)
        r = rotation_onto_axis(n / np.linalg.norm(n))
        w = np.linalg.eigvalsh(build_p1_hamiltonian(r @ b_vec, r @ axis))
        assert np.allclose(np.sort(w), np.sort(w0), rtol=1e-12, atol=1e-3)


def test_p1_on_axis_high_field_gaps_approach_secular_form():
    # at fixed m_i the electron gap tends to |gamma_e| B + m_i A_par, with
    # the residual shrinking as 1/B
    axis = JtOrientation("on-axis").axis

    def gaps(b):
        h = build_p1_hamiltonian(b, axis)
        w, v = np.linalg.eigh(h)
        labels = label_levels(v, (2, 3))
        level = {}
        for idx, ((ms, mi), weight) in enumerate(labels):
            assert weight > 0.9
            level[(round(ms * 2), round(mi))] = w[idx]
        return {mi: level[(1, mi)] - level[(-1, mi)] for mi in (-1, 0, 1)}

    # the residual is ~ a_perp^2 / (gamma_e B): about 0.94 MHz at 2500 G
    for b, tol in ((2500.0, 1.0e6), (5000.0, 0.5e6)):
        g = gaps(b)
        for mi in (-1, 0, 1):
            expect = abs(GAMMA_E_HZ_PER_G) * b + mi * 114.0e6
            assert abs(g[mi] - expect) < tol, (b, mi)
    # leading correction is second order in A_perp / (gamma_e B)
    dev_lo = abs(gaps(2500.0)[0] - abs(GAMMA_E_HZ_PER_G) * 2500.0)
    dev_hi = abs(gaps(5000.0)[0] - abs(GAMMA_E_HZ_PER_G) * 5000.0)
    assert dev_lo / dev_hi == pytest.approx(2.0, rel=0.1)


def test_label_levels_on_product_basis():
    h = np.diag([5.0, 1.0, 3.0, 2.0, 4.0, 0.0]).astype(complex)
    _, v = np.linalg.eigh(h)
    labels = label_levels(v, (2, 3))
    assert all(weight == pytest.approx(1.0) for _, weight in labels)
    projections = {proj for proj, _ in labels}
    assert projections == {(s, m) for s in (0.5, -0.5) for m in (1.0, 0.0, -1.0)}


@pytest.mark.parametrize("m_i", [-1, 0, 1])
def test_p1_center_level_pair_labels(m_i):
    center = P1Center(m_i=m_i)
    h = center.hamiltonian(72.0)
    w, v = np.linalg.eigh(h)
    i_up, i_dn = level_pair(center, v)
    labels = label_levels(v, (2, 3))
    assert center.probed == ((0.5, m_i), (-0.5, m_i))
    assert labels[i_up][0] == (0.5, m_i)
    assert labels[i_dn][0] == (-0.5, m_i)
    assert w[i_up] > w[i_dn]


@pytest.mark.parametrize("b", [0.0, 2.0])
def test_p1_center_level_pair_refuses_mixed_low_field_levels(b):
    # off the bond axis, the m_I = 0 levels have no label above 1/2 here
    center = P1Center(m_i=0)
    _, v = np.linalg.eigh(center.hamiltonian(b))
    with pytest.raises(ValueError, match="unaddressable"):
        level_pair(center, v)


def test_p1_center_thermal_has_no_level_pair():
    center = P1Center(m_i=None)
    h = center.hamiltonian(72.0)
    w, v = np.linalg.eigh(h)
    with pytest.raises(ValueError, match="no single level pair"):
        level_pair(center, v)
    with pytest.raises(ValueError):
        P1Center(m_i=2)


@pytest.mark.parametrize(
    "center",
    [NVCenter(levels=lv) for lv in itertools.permutations((0, -1, 1), 2)]
    + [BareElectron()],
    ids=lambda c: "electron" if isinstance(c, BareElectron) else
    "nv{:+d}{:+d}".format(*c.levels))
def test_nv_center_level_pair(center):
    h = center.hamiltonian(72.0)
    w, v = np.linalg.eigh(h)
    i0, i1 = level_pair(center, v)
    labels = label_levels(v, center.dims)
    assert (labels[i0][0], labels[i1][0]) == center.probed
    assert i0 != i1
    with pytest.raises(ValueError):
        NVCenter(levels=(0, 2))
    with pytest.raises(ValueError):
        NVCenter(levels=(1, 1))


def test_system_hamiltonian_matches_direct_kron_assembly():
    """Full 12-level matrix rebuilt longhand in a different algebraic form.

    The bond-frame hyperfine term is assembled here as
    A_perp (S.I) + (A_par - A_perp) (S.n)(I.n), which never names the
    transverse frame completion, and the carbon tensor comes straight from
    the SI dipole formula.
    """
    jt = JtOrientation.off_axis(1)
    central = P1Center(jt=jt)
    pos = (0.5, 0.5, 0.5)
    b = 72.0
    got = build_system_hamiltonian(central, Bath([pos]), b)
    assert got.shape == (12, 12)

    i2, i3 = np.eye(2), np.eye(3)
    s_ops = [np.kron(np.kron(o, i3), i2) for o in (_SX2, _SY2, _SZ2)]
    i_ops = [np.kron(np.kron(i2, o), i2) for o in (_SX3, _SY3, _SZ3)]
    c_ops = [np.kron(np.kron(i2, i3), o) for o in (_SX2, _SY2, _SZ2)]

    def dot(ops, v):
        return v[0] * ops[0] + v[1] * ops[1] + v[2] * ops[2]

    n = np.asarray(jt.axis)
    s_dot_i = sum(s_ops[k] @ i_ops[k] for k in range(3))
    h = 114.0e6 * 0.0  # start from zeros of the right shape below
    h = 81.34e6 * s_dot_i + (114.0 - 81.34) * 1e6 * (dot(s_ops, n) @ dot(i_ops, n))
    h = h + (-4.2e6) * (dot(i_ops, n) @ dot(i_ops, n))
    h = h - GAMMA_E_HZ_PER_G * 72.0 * s_ops[2]
    h = h - GAMMA_N14_HZ_PER_G * 72.0 * i_ops[2]
    h = h - GAMMA_C13_HZ_PER_G * 72.0 * c_ops[2]

    r_m = np.asarray(pos) * 1e-9
    dist = np.linalg.norm(r_m)
    rhat = r_m / dist
    pref = (si.mu_0 * si.h * (GAMMA_E_HZ_PER_G * 1e4)
            * (GAMMA_C13_HZ_PER_G * 1e4) / (4.0 * math.pi * dist ** 3))
    tensor = pref * (np.eye(3) - 3.0 * np.outer(rhat, rhat))
    for i in range(3):
        for j in range(3):
            h = h + tensor[i, j] * (s_ops[i] @ c_ops[j])

    scale = np.abs(h).max()
    assert np.abs(got - h).max() < 1e-12 * scale


def test_system_hamiltonian_rejects_coincident_spins():
    with pytest.raises(ValueError):
        build_hamiltonian_stack(
            P1Center(), [[(0.5, 0.5, 0.5), (0.5, 0.5, 0.5)]],
            [[GAMMA_C13_HZ_PER_G, GAMMA_C13_HZ_PER_G]], 72.0)


def test_system_hamiltonian_carbon_pair_coupling_toggle():
    group = Bath([(0.5, 0.5, 0.5), (0.7, 0.5, 0.5)])
    h_on = build_system_hamiltonian(NVCenter(), group, 72.0)
    h_off = build_system_hamiltonian(NVCenter(), group, 72.0, include_nn=False)
    diff = h_on - h_off
    assert np.abs(diff).max() > 0.0
    # the difference acts only on the carbon pair: tracing out the center
    # must leave it untouched, and it carries no electron operator content
    nb = 4
    blocks = [diff[k * nb:(k + 1) * nb, k * nb:(k + 1) * nb] for k in range(3)]
    assert np.allclose(blocks[0], blocks[1], atol=1e-9)
    assert np.allclose(blocks[0], blocks[2], atol=1e-9)
    offdiag = diff.copy()
    for k in range(3):
        offdiag[k * nb:(k + 1) * nb, k * nb:(k + 1) * nb] = 0.0
    assert np.abs(offdiag).max() < 1e-12


def test_system_hamiltonian_secular_mode_keeps_sz_row_only():
    # the oracle's secular form, which the closed-form echo tests run
    group = Bath([(0.4, 0.3, 0.6)])
    h_full = group_hamiltonian(BareElectron(), group, 72.0)
    h_sec = group_hamiltonian(BareElectron(), group, 72.0,
                              secular_hyperfine=True)
    tensor = _dipole_tensors((0.4, 0.3, 0.6), GAMMA_E_HZ_PER_G,
                             GAMMA_C13_HZ_PER_G)[0]
    sx = np.kron(_SX2, np.eye(2))
    sy = np.kron(_SY2, np.eye(2))
    cx, cy, cz = (np.kron(np.eye(2), o) for o in (_SX2, _SY2, _SZ2))
    dropped = sum(tensor[0, j] * (sx @ c) for j, c in enumerate((cx, cy, cz)))
    dropped = dropped + sum(tensor[1, j] * (sy @ c)
                            for j, c in enumerate((cx, cy, cz)))
    assert np.allclose(h_full - h_sec, dropped, atol=1e-6)


def test_system_hamiltonian_scale_zero_decouples_bath():
    # the oracle's decoupled form, which the decoupled-bath test runs
    group = Bath([(0.4, 0.3, 0.6)])
    h = group_hamiltonian(BareElectron(), group, 72.0, hyperfine_scale=0.0,
                          include_nn=False)
    hc = BareElectron().hamiltonian(72.0)
    cz = np.kron(np.eye(2), _SZ2)
    expect = np.kron(hc, np.eye(2)) - GAMMA_C13_HZ_PER_G * 72.0 * cz
    assert np.allclose(h, expect, atol=1e-9)


def test_system_hamiltonian_empty_group_is_central_only():
    h = build_system_hamiltonian(NVCenter(), Bath([]), 65.0)
    assert np.allclose(h, build_nv_hamiltonian(65.0), atol=0)


def _stacks():
    """Groups (each a Bath) of a seeded bath by size; each stack also holds
    a group with an on-axis carbon, whose tensor has exact zeros the others
    lack."""
    positions = generate_bath(seed=3, n_spins=30).positions
    stacks = []
    for size in (1, 2, 3):
        groups = [positions[m:m + size] for m in range(0, 10 * size, size)]
        groups.insert(1, np.vstack([(0.0, 0.0, 0.535), groups[0][1:]]))
        stacks.append([Bath(group) for group in groups])
    return stacks


def _stack(central, groups, b, **options):
    """build_hamiltonian_stack of groups (Baths) of one size."""
    return build_hamiltonian_stack(
        central, np.stack([group.positions for group in groups]),
        np.stack([group.gammas for group in groups]), b, **options)


# The stack builds the model alone, include_nn its one option; the
# validation forms (secular, scaled or decoupled hyperfine) exist only in
# oracles.group_hamiltonian, from which the closed-form tests run them.
_FORMS = [{}, {"include_nn": False}, {"secular_hyperfine": True},
          {"hyperfine_scale": 0.0}, {"hyperfine_scale": 0.5}]


def _model_options(options):
    """The options of the model among options: include_nn alone."""
    return {key: value for key, value in options.items()
            if key == "include_nn"}


def _dropped_hyperfine(central, group, options):
    """The electron-carbon terms a validation form leaves out of the model,
    longhand: per carbon, the part of its scalar tensor the form drops,
    on the S_i I_j products of oracles.gemm_terms."""
    terms = list(gemm_terms(central, len(group)))
    dropped = np.zeros_like(terms[0])
    for m, (position, gamma) in enumerate(zip(group.positions,
                                              group.gammas.tolist())):
        tensor = scalar_dipole_tensor(position, GAMMA_E_HZ_PER_G, gamma)
        kept = options.get("hyperfine_scale", 1.0) * tensor
        if options.get("secular_hyperfine"):
            kept[:2] = 0.0
        for ij, c in enumerate((tensor - kept).ravel()):
            dropped += c * terms[12 * m + 3 + ij]
    return dropped


@pytest.mark.parametrize("central", [P1Center(), NVCenter(),
                                     P1Center(m_i=None)],
                         ids=["p1", "nv", "p1-thermal"])
@pytest.mark.parametrize("options", _FORMS)
@pytest.mark.parametrize("b", [72.0, (5.0, 0.0, 72.0)])
def test_hamiltonian_stack_equals_term_by_term_assembly(central, options, b):
    model = _model_options(options)
    for groups in _stacks():
        stack = _stack(central, groups, b, **model)
        assert stack.shape[0] == len(groups)
        for h, group in zip(stack, groups):
            want = group_hamiltonian(central, group, b, **options)
            if options == model:
                # bit for bit on every nonzero; + 0.0 makes every zero +0
                assert (h + 0.0).tobytes() == (want + 0.0).tobytes()
            else:
                # a validation form is the model less the terms it names
                dropped = _dropped_hyperfine(central, group, options)
                assert np.abs(dropped).max() > 1.0
                assert (np.abs(h - want - dropped).max()
                        <= 1e-14 * np.abs(h).max())


@pytest.mark.parametrize("central", [P1Center(), NVCenter(),
                                     P1Center(m_i=None)],
                         ids=["p1", "nv", "p1-thermal"])
@pytest.mark.parametrize("options", _FORMS)
@pytest.mark.parametrize("b", [72.0, (5.0, 0.0, 72.0)])
def test_stacked_eigh_equals_eigh_of_the_term_by_term_assembly(central,
                                                                options, b):
    model = _model_options(options)
    taus = (0.0, 3e-6, 12e-6)
    probes = dynamics._levels(central, b)[0]
    setups = [dynamics._Setup(central, b, probes, dynamics._plans(prog, taus),
                              (1, 2, 3))
              for prog in (expand_preset("hahn"), expand_preset("xy8", 2))]
    for groups in _stacks():
        w, v = np.linalg.eigh(_stack(central, groups, b, **model))
        forms = [group_hamiltonian(central, group, b, **options)
                 for group in groups]
        if options == model:
            # the signs of zeros the stack may differ in do not reach eigh
            for wg, vg, h in zip(w, v, forms):
                w1, v1 = np.linalg.eigh(h)
                assert w1.tobytes() == wg.tobytes()
                assert v1.tobytes() == vg.tobytes()
            continue
        # a validation form reaches the library kernel as the closed-form
        # tests run it, through eigh and _group_curves, and gives the echo
        # of the unrolled reference kernel
        w, v = np.linalg.eigh(np.stack(forms))
        for setup in setups:
            got = dynamics._group_curves(w, v, setup)
            for p, (_, (a, b_state)) in enumerate(probes):
                want = group_curves_unrolled(w, v, a, b_state, setup.eta,
                                             setup.plans, len(taus))
                assert np.abs(got[:, p] - want).max() <= 1e-12


@pytest.mark.parametrize("central", [P1Center(), NVCenter(), BareElectron()],
                         ids=["p1", "nv", "electron"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kron_terms_equal_the_matrix_products(central, k):
    terms = list(_dense_terms(central.dims, k))
    products = list(gemm_terms(central, k))
    assert len(terms) == len(products) == 12 * k + 9 * k * (k - 1) // 2
    for term, product in zip(terms, products):
        support = np.flatnonzero(term)
        # the same nonzeros, equal in value; only signs of zeros may differ
        assert np.array_equal(support, np.flatnonzero(product))
        assert (term.ravel()[support] == product.ravel()[support]).all()


def test_stacked_eigh_equals_one_matrix_at_a_time():
    for groups in _stacks():
        stack = _stack(P1Center(), groups, 72.0)
        w, v = np.linalg.eigh(stack)
        for h, wg, vg in zip(stack, w, v):
            w1, v1 = np.linalg.eigh(h)
            assert w1.tobytes() == wg.tobytes()
            assert v1.tobytes() == vg.tobytes()


def test_hamiltonian_stack_needs_one_group_size():
    pos = [[(0.5, 0.5, 0.5), (0.7, 0.5, 0.5)]]
    with pytest.raises(ValueError, match="share a size"):
        build_hamiltonian_stack(NVCenter(), pos, [[GAMMA_C13_HZ_PER_G]], 72.0)
    with pytest.raises(ValueError, match="share a size"):
        build_hamiltonian_stack(NVCenter(), pos[0], [GAMMA_C13_HZ_PER_G] * 2,
                                72.0)
    assert build_hamiltonian_stack(NVCenter(), np.zeros((0, 0, 3)),
                                   np.zeros((0, 0)), 72.0).shape == (0, 3, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hamiltonian_stack_refuses_non_finite_spins(bad):
    # refused before eigh, which fails to converge on such a matrix
    with pytest.raises(ValueError, match="positions and gammas must be finite"):
        build_hamiltonian_stack(P1Center(), [[(0.5, bad, 0.5)]],
                                [[GAMMA_C13_HZ_PER_G]], 72.0)
    with pytest.raises(ValueError, match="positions and gammas must be finite"):
        build_hamiltonian_stack(P1Center(), [[(0.5, 0.4, 0.5)]], [[bad]], 72.0)


def test_field_vector_forms_agree():
    h_scalar = build_nv_hamiltonian(72.0)
    h_vec = build_nv_hamiltonian((0.0, 0.0, 72.0))
    assert np.allclose(h_scalar, h_vec, atol=0)
    with pytest.raises(ValueError):
        build_nv_hamiltonian((1.0, 2.0))


# spin matrices and the oracle's composite space (embed, rotation),
# propagator, density matrix and projector

@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_commutation_relations(s):
    sx, sy, sz = spin_operators(s)
    assert sz.shape == (int(2 * s + 1),) * 2
    comm = sx @ sy - sy @ sx
    assert np.allclose(comm, 1j * sz, atol=1e-12)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, s * (s + 1) * np.eye(len(sz)), atol=1e-12)


def test_spin_half_matches_pauli_over_two():
    sx, sy, sz = spin_operators(0.5)
    assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(sz, [[0.5, 0], [0, -0.5]])


def test_basis_order_is_descending_projection():
    ops = spin_operators(1.0)
    assert np.allclose(np.diag(ops[2]).real, [1.0, 0.0, -1.0])
    p = projector(ops, -1.0)
    assert p[2, 2] == 1.0 and np.trace(p) == 1.0


def test_projector_rejects_projection_off_ladder():
    with pytest.raises(ValueError):
        projector(spin_operators(0.5), 1.5)


def test_invalid_spin_quantum_number():
    with pytest.raises(ValueError):
        spin_operators(0.3)
    with pytest.raises(ValueError):
        spin_operators(0.0)


def test_operator_matrices_are_read_only():
    ops = spin_operators(0.5)
    assert spin_operators(0.5) is ops  # one cached tuple per spin
    for op in ops:
        with pytest.raises(ValueError):
            op[0, 0] = 5.0


def test_composite_space_dims():
    assert embed(np.eye(3), 1, (2, 3, 2, 2)).shape == (24, 24)
    with pytest.raises(ValueError):
        embed(np.eye(2), 0, (2, 1))


def test_embed_acts_on_named_slot_only():
    sz = spin_operators(1.0)[2]
    full = embed(sz, 1, (2, 3))
    assert full.shape == (6, 6)
    assert np.allclose(full, np.kron(np.eye(2), sz))
    with pytest.raises(ValueError):
        embed(sz, 0, (2, 3))  # dimension mismatch
    with pytest.raises(ValueError):
        embed(sz, 2, (2, 3))


def test_density_matrix_validation():
    good = DensityMatrix(np.eye(2) / 2.0)
    assert good.dim == 2
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_evolve_is_unitary_and_composes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) * 1e6
        u1 = evolve(h, 3e-7)
        u2 = evolve(h, 5e-7)
        assert np.allclose(u1 @ u1.conj().T, np.eye(6), atol=1e-12)
        assert np.allclose(u1 @ u2, evolve(h, 8e-7), atol=1e-10)


def test_evolve_phase_convention():
    # a level at +f Hz acquires exp(-i 2 pi f t)
    h = np.diag([1e6, 0.0]).astype(complex)
    u = evolve(h, 0.25e-6)
    assert u[0, 0] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)
    assert u[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_evolve_rejects_bad_input():
    with pytest.raises(ValueError):
        evolve(np.diag([1.0, 2.0]), -1e-6)
    with pytest.raises(ValueError):
        evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-6)


def test_evolve_preserves_density_matrix_properties():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) * 1e5
    probs = rng.random(4)
    rho = np.diag(probs / probs.sum()).astype(complex)
    u = evolve(h, 2e-6)
    rho_t = u @ rho @ u.conj().T
    assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho_t - rho_t.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho_t).min() > -1e-12


def test_rotation_on_subspace_leaves_spectator_level_alone():
    u = rotation("x", np.pi, 0, (3, 2), subspace=(0, 2))
    # the middle level of the first slot is untouched
    mid = np.zeros(6, dtype=complex)
    mid[2] = 1.0  # |m=0> x |up>
    assert np.allclose(u @ mid, mid, atol=1e-12)
    # and the driven pair swaps (up to the -i phase of a pi pulse)
    top = np.zeros(6, dtype=complex)
    top[0] = 1.0
    out = u @ top
    assert abs(out[4]) == pytest.approx(1.0, abs=1e-12)


def test_rotation_requires_subspace_for_large_slots():
    with pytest.raises(ValueError):
        rotation("x", np.pi, 0, (3,))
    with pytest.raises(ValueError):
        rotation("x", np.pi, 0, (3,), subspace=(1, 1))
    with pytest.raises(ValueError):
        rotation("x", np.pi, 0, (3,), subspace=(0, 3))
    with pytest.raises(ValueError):
        rotation("x", np.pi, 1, (3,))


def test_rotation_defaults_to_whole_two_level_slot():
    u = rotation("y", np.pi / 2, 1, (2, 2))
    expect = np.kron(np.eye(2), two_level_unitary("y", np.pi / 2))
    assert np.allclose(u, expect, atol=1e-12)
