"""Distributions, transversal splits, pushforwards by diffeomorphisms."""

import warnings

import numpy as np
import pytest

from jumpflow.errors import DegeneracyError
from jumpflow.geometry import (ComplementaryPair, DiffeoProbe, Distribution,
                               GeometryConfig, adjoint_distribution,
                               split_field, split_frame, subspace_projector)


def _random_pair(rng, n, k):
    while True:
        S = rng.standard_normal((n, n))
        if abs(np.linalg.det(S)) > 0.1 and np.linalg.cond(S) < 1e3:
            break
    H = Distribution.constant(S[:, :k])
    V = Distribution.constant(S[:, k:])
    return ComplementaryPair(horizontal=H, vertical=V), S


def test_split_reconstruction_over_random_probes():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        pair, _ = _random_pair(rng, n, k)
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        h, w = split_field(v, pair.horizontal, pair.vertical, x)
        worst = max(worst, float(np.max(np.abs(h + w - v))))
    assert worst < 1e-10


def test_split_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        pair, _ = _random_pair(rng, n, k)
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)
        h, w = split_field(v, pair.horizontal, pair.vertical, x)
        h2, w2 = split_field(h, pair.horizontal, pair.vertical, x)
        assert np.max(np.abs(h2 - h)) < 1e-9
        assert np.max(np.abs(w2)) < 1e-9


def test_split_is_basis_invariant():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        pair, S = _random_pair(rng, n, k)
        M = rng.standard_normal((k, k)) + 3 * np.eye(k)
        H_mixed = Distribution.constant(S[:, :k] @ M)
        # the same span: equal orthogonal projectors
        P = subspace_projector(pair.horizontal.basis(np.zeros(n)))
        P_mixed = subspace_projector(H_mixed.basis(np.zeros(n)))
        assert np.max(np.abs(P - P_mixed)) <= 1e-10
        v = rng.standard_normal(n)
        x = rng.standard_normal(n)
        h_a, w_a = split_field(v, pair.horizontal, pair.vertical, x)
        h_b, w_b = split_field(v, H_mixed, pair.vertical, x)
        assert np.max(np.abs(h_a - h_b)) < 1e-9
        assert np.max(np.abs(w_a - w_b)) < 1e-9


def test_projector_properties():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((5, 2))
    P = subspace_projector(B)
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.max(np.abs(P - P.T)) < 1e-12
    assert np.max(np.abs(P @ B - B)) < 1e-12


def test_adjoint_of_identity_is_identity():
    rng = np.random.default_rng(12)
    B = rng.standard_normal((4, 2))
    delta = Distribution.constant(B)
    moved = adjoint_distribution(DiffeoProbe.identity(4), delta)
    x = rng.standard_normal(4)
    assert np.max(np.abs(moved.basis(x) - delta.basis(x))) < 1e-12


def test_adjoint_of_linear_map_matches_closed_form():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    B = rng.standard_normal((3, 2))
    delta = Distribution.constant(B)
    moved = adjoint_distribution(DiffeoProbe.linear(M), delta)
    x = rng.standard_normal(3)
    # constant distribution: fiber at x is M B regardless of base point
    assert np.max(np.abs(moved.basis(x) - M @ B)) < 1e-10


@pytest.mark.parametrize("batch", [(5, 3), (3, 3), (2, 4, 3)])
@pytest.mark.parametrize("probe", ["identity", "linear"])
def test_adjoint_basis_of_a_batch_is_each_point_basis(batch, probe):
    # a radial distribution, so each fiber depends on its own base point;
    # a square batch (3, 3) must not be read as one matrix right-hand side
    rng = np.random.default_rng(14)
    M = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    probe = (DiffeoProbe.identity(3) if probe == "identity"
             else DiffeoProbe.linear(M))
    delta = Distribution(3, 1, lambda x: x[..., None])
    moved = adjoint_distribution(probe, delta)
    X = rng.standard_normal(batch)
    got = moved.basis(X)
    assert got.shape == batch + (1,)
    assert probe.jacobian(X).shape == batch + (3,)
    # a fresh array, not a read-only view, for one point and for a batch
    assert probe.jacobian(X[0]).flags.writeable
    assert probe.jacobian(X).flags.writeable
    each = np.array([moved.basis(x) for x in X.reshape(-1, 3)])
    assert np.max(np.abs(got - each.reshape(got.shape))) < 1e-12


def test_adjoint_tracks_base_point_of_nonlinear_probe():
    # the shear x -> (x_1 + 0.3 sin x_2, x_2), by its Jacobian and inverse
    def jac(x):
        return np.array([[1.0, 0.3 * np.cos(x[1])], [0.0, 1.0]])

    def inv(y):
        return np.array([y[0] - 0.3 * np.sin(y[1]), y[1]])

    probe = DiffeoProbe(jac, inv)

    def basis_fn(x):
        return np.array([[1.0], [x[0]]])

    delta = Distribution(2, 1, basis_fn)
    moved = adjoint_distribution(probe, delta)
    y = np.array([0.7, -0.4])
    p = inv(y)
    expect = jac(p) @ basis_fn(p)
    assert np.max(np.abs(moved.basis(y) - expect)) < 1e-12


def test_transversality_accepts_and_rejects():
    H = Distribution.constant(np.array([[1.0], [0.0]]))
    V_good = Distribution.constant(np.array([[0.0], [1.0]]))
    V_bad = Distribution.constant(np.array([[1.0], [1e-14]]))
    x = np.zeros(2)
    _, det, _ = split_frame(np.concatenate([H.basis(x), V_good.basis(x)],
                                           axis=1), np.zeros(2))
    assert abs(det - 1.0) < 1e-12
    with pytest.raises(DegeneracyError):
        split_frame(np.concatenate([H.basis(x), V_bad.basis(x)], axis=1),
                    np.zeros(2))
    with pytest.raises(ValueError):
        split_field(np.zeros(2), H, Distribution.constant(np.eye(2)), x)


def test_split_raises_on_degenerate_frame():
    S = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(DegeneracyError):
        split_frame(S, np.array([1.0, 0.0]))


def test_split_respects_thresholds():
    # columns of different lengths are not a degeneracy: the scaled
    # determinant of diag(1, 1e-5) is 1, its condition number 1e5
    S = np.array([[1.0, 0.0], [0.0, 1e-5]])
    c, det, cond = split_frame(S, np.array([1.0, 1.0]),
                               GeometryConfig(eps_det=1e-4))
    assert det == 1.0 and abs(cond - 1e5) < 1e-6 * 1e5
    assert np.allclose(S @ c, [1.0, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(DegeneracyError):
        split_frame(S, np.array([1.0, 1.0]), GeometryConfig(cond_cap=1e4))
    # a nearly dependent frame: scaled determinant 1e-3 / hypot(1, 1e-3)
    dependent = np.array([[1.0, 1.0], [0.0, 1e-3]])
    with pytest.raises(DegeneracyError):
        split_frame(dependent, np.ones(2), GeometryConfig(eps_det=1e-2))
    split_frame(dependent, np.ones(2), GeometryConfig(eps_det=1e-4))


def _frames(rng, shape, n):
    return rng.standard_normal(shape + (n, n)) + 2 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3])
def test_split_of_a_stack_equals_each_frame_alone(n):
    # one call can serve the mesh nodes and the probes together
    rng = np.random.default_rng(21 + n)
    S, rhs = _frames(rng, (5, 4), n), rng.standard_normal((5, 4, n))
    flat_S = np.concatenate([S.reshape(-1, n, n), _frames(rng, (7,), n)])
    flat_r = np.concatenate([rhs.reshape(-1, n), rng.standard_normal((7, n))])
    coeff, det, cond = split_frame(flat_S, flat_r)
    alone = [split_frame(s, r) for s, r in zip(flat_S, flat_r)]
    assert np.array_equal(coeff, np.array([a[0] for a in alone]))
    assert det == min(a[1] for a in alone)
    assert cond == max(a[2] for a in alone)
    assert np.array_equal(split_frame(S, rhs)[0].reshape(-1, n), coeff[:20])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_frame_matches_solve_and_cond(n):
    rng = np.random.default_rng(30 + n)
    S, rhs = _frames(rng, (40,), n), rng.standard_normal((40, n))
    coeff, det, cond = split_frame(S, rhs)
    want = np.linalg.solve(S, rhs[..., None])[..., 0]
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(coeff - want) <= 1e-12 * scale)
    conds = np.linalg.cond(S)
    assert abs(cond - conds.max()) <= 1e-12 * conds.max()
    scaled = np.abs(np.linalg.det(S)) / np.prod(np.linalg.norm(S, axis=-2),
                                                axis=-1)
    assert abs(det - scaled.min()) <= 1e-12 * scaled.min()


@pytest.mark.parametrize("e", [1e-7, 1e-8, 3e-9])
def test_ill_conditioned_2x2_cond_does_not_cancel(e):
    # sig_lo taken from (fro2 - disc) / 2 loses its digits as cond grows
    S = np.array([[1.0, 0.3], [0.2, 0.06 + e]])
    _, _, cond = split_frame(S, np.ones(2),
                             GeometryConfig(eps_det=0.0, cond_cap=np.inf))
    want = np.linalg.cond(S)
    assert abs(cond - want) <= 1e-6 * want


@pytest.mark.parametrize("n", [2, 3])
def test_scaled_determinant_ignores_column_scale(n):
    rng = np.random.default_rng(40 + n)
    good = _frames(rng, (), n)
    near = good.copy()
    near[:, -1] = near[:, 0] + 1e-14 * rng.standard_normal(n)
    _, det0, _ = split_frame(good, np.ones(n))
    for k in range(-5, 6):
        scale = np.ones(n)
        scale[-1] = 10.0 ** k
        _, det, _ = split_frame(good * scale, np.ones(n))
        assert abs(det - det0) <= 1e-12 * det0
        with pytest.raises(DegeneracyError):
            split_frame(near * scale, np.ones(n))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_frame_raises_degeneracy(n, bad):
    S = np.stack([np.eye(n), np.eye(n)])
    S[1, 0, n - 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError):
            split_frame(S, np.ones((2, n)))


@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_coefficients_come_back_non_finite_without_warning(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeff, _, _ = split_frame(0.5 * np.eye(n), np.full(n, 1e308))
    assert not np.isfinite(coeff).any()


def test_pair_rank_validation():
    H = Distribution.constant(np.eye(3)[:, :2])
    V = Distribution.constant(np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        ComplementaryPair(horizontal=H, vertical=V)


def test_distribution_shape_guard():
    bad = Distribution(2, 1, lambda x: np.ones((3, 1)))
    with pytest.raises(ValueError):
        bad.basis(np.zeros(2))
    with pytest.raises(ValueError):
        Distribution(2, 3, lambda x: np.ones((2, 3)))


def test_constant_distribution_needs_a_matrix_basis():
    with pytest.raises(ValueError, match=r"constant basis must be an \(n, k\)"):
        Distribution.constant(np.array([1.0, 0.0]))


_LINE2, _PLANE3 = np.eye(2)[:, :1], np.eye(3)[:, 1:]


@pytest.mark.parametrize("make, message", [
    (lambda: ComplementaryPair(Distribution.constant(_LINE2),
                               Distribution.constant(_PLANE3)),
     "pair lives on different spaces"),
    (lambda: ComplementaryPair(Distribution.constant(_LINE2),
                               Distribution.constant(np.eye(2))),
     "ranks must sum to the dimension"),
    (lambda: Distribution.constant(np.ones(3)),
     r"constant basis must be an \(n, k\) array"),
    (lambda: Distribution(2, 3, lambda x: np.eye(2)),
     "rank must be between 1 and the dimension"),
], ids=["pair-spaces", "pair-ranks", "basis-shape", "rank-too-high"])
def test_argument_checks_name_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()
