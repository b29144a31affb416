"""Spin-operator algebra: the spin matrices of hamiltonians, the pulse
axes and ideal two-level rotations of pulses, and the oracle's composite
space (embed, rotation), propagator, density matrix and projector."""

import numpy as np
import pytest

from oracles import DensityMatrix, embed, evolve, projector, rotation
from spinbath.hamiltonians import spin_operators
from spinbath.pulses import AXIS_VECTORS, two_level_unitary


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
