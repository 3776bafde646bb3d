"""Oracle self-checks: exponential, rotation and radial factorizations."""

import numpy as np
import pytest

from jumpflow.reference import (linear_marcus_mean, matrix_exp,
                                radial_decomposition, rotation_decomposition)


def test_exp_zero_is_identity():
    res = matrix_exp(np.zeros((3, 3)))
    assert np.allclose(res.value, np.eye(3), atol=1e-15)
    assert res.method == "taylor-scaling-squaring"


def test_exp_quarter_turn():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    res = matrix_exp(gen, np.pi / 2)
    expect = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(res.value - expect)) < 1e-14


def test_exp_against_series():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(-1, 1, size=(3, 3))
        A /= max(1.0, np.linalg.norm(A, 2))
        truth = np.eye(3)
        term = np.eye(3)
        for k in range(1, 40):
            term = term @ A / k
            truth = truth + term
        assert np.max(np.abs(matrix_exp(A).value - truth)) < 1e-12


def test_exp_scaling_consistency():
    A = np.array([[0.3, -0.7], [0.5, 0.1]])
    half = matrix_exp(A, 0.5).value
    full = matrix_exp(A, 1.0).value
    assert np.max(np.abs(half @ half - full)) < 1e-13


def test_rotation_factors_at_pi_over_4():
    z = np.pi / 4
    xi, psi = rotation_decomposition(z)
    s2 = np.sqrt(2.0)
    assert np.allclose(xi, [[s2, -1.0], [0.0, 1.0]], atol=1e-14)
    assert np.allclose(psi, [[1.0, 0.0], [s2 / 2, s2 / 2]], atol=1e-14)


def test_rotation_factors_compose():
    for z in (-1.2, -0.3, 0.0, 0.7, 1.4):
        xi, psi = rotation_decomposition(z)
        rot = np.array([[np.cos(z), -np.sin(z)], [np.sin(z), np.cos(z)]])
        assert np.max(np.abs(xi @ psi - rot)) < 1e-13
        # structural blocks
        assert xi[1, 0] == 0.0 and xi[1, 1] == 1.0
        assert psi[0, 0] == 1.0 and psi[0, 1] == 0.0


def test_rotation_degenerate_at_half_turn():
    assert rotation_decomposition(np.pi / 2) is None
    assert rotation_decomposition(-np.pi / 2) is None


def test_radial_factors_compose_on_probes():
    rng = np.random.default_rng(11)
    probes = rng.uniform(-1, 1, size=(16, 2))
    probes = probes[np.linalg.norm(probes, axis=1) > 0.3]
    M = np.array([[1.2, 0.3], [-0.1, 0.9]])
    psi, xi = radial_decomposition(M, probes)
    for p in probes:
        assert np.max(np.abs(xi(psi(p)) - M @ p)) < 1e-12
        # psi moves along the ray through p
        q = psi(p)
        assert abs(q[0] * p[1] - q[1] * p[0]) < 1e-12
        # xi preserves the radius
        assert abs(np.linalg.norm(xi(q)) - np.linalg.norm(q)) < 1e-12


def test_radial_orthogonal_gives_identity_psi():
    th = 0.4
    M = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    psi, _ = radial_decomposition(M, np.array([[1.0, 0.0]]))
    p = np.array([0.3, -0.8])
    assert np.max(np.abs(psi(p) - p)) < 1e-13


def test_radial_scaling_gives_identity_xi():
    M = 1.7 * np.eye(2)
    _, xi = radial_decomposition(M, np.array([[1.0, 0.0]]))
    p = np.array([0.5, 0.2])
    assert np.max(np.abs(xi(p) - p)) < 1e-13


def test_radial_rejects_singular():
    with pytest.raises(ValueError):
        radial_decomposition(np.array([[1.0, 0.0], [1.0, 0.0]]),
                             np.array([[1.0, 0.0]]))


def test_marcus_mean_scalar_closed_forms():
    # dX = a X o dZ, m_t = exp(t (b a + s^2 a^2 / 2 + lam (E[exp(a J)] - 1)))
    a, b, s, lam, t = 0.7, 0.2, 0.3, 2.0, 0.8
    laws = {("uniform", -0.4, 0.9):
            (np.exp(0.9 * a) - np.exp(-0.4 * a)) / (1.3 * a),
            ("gaussian", 0.1, 0.5): np.exp(0.1 * a + 0.125 * a * a),
            ("constant", 0.6): np.exp(0.6 * a)}
    for law, e_jump in laws.items():
        got = linear_marcus_mean([[[a]]], [1.5], [0.0, t], b, s, lam, law)
        want = 1.5 * np.exp(t * (b * a + 0.5 * s * s * a * a
                                 + lam * (e_jump - 1.0)))
        assert got.value[0, 0] == 1.5
        assert abs(got.value[1, 0] - want) < 1e-12, law


def test_marcus_mean_zero_width_law_is_the_constant_law():
    A = np.array([[[0.0, -0.3, 0.0], [0.3, 0.0, 0.1], [0.0, -0.1, 0.0]],
                  [[0.1, 0.0, 0.2], [0.0, -0.1, 0.0], [-0.2, 0.0, 0.1]]])
    x0, times = [1.0, 0.5, -0.25], np.linspace(0.0, 1.0, 11)
    const = linear_marcus_mean(A, x0, times, 0.1, 0.25, 3.0,
                               ("constant", [0.2, -0.1])).value
    for law in (("uniform", [0.2, -0.1], [0.2, -0.1]),
                ("gaussian", [0.2, -0.1], [0.0, 0.0])):
        got = linear_marcus_mean(A, x0, times, 0.1, 0.25, 3.0, law).value
        assert np.array_equal(got, const)
