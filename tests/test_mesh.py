"""Structured-mesh charts: interpolation, differentiation, inversion."""

import itertools
import warnings

import numpy as np
import pytest

from jumpflow.errors import MeshInversionError
from jumpflow.mesh import (MeshChart, interp_mesh, invert_mesh_map,
                           mesh_jacobian)


def _quadratic_values(chart, coeff=(1.0, 0.5, -0.3, 0.7)):
    G = chart.chart_grid()
    a, b, c, d = coeff
    f = a + b * G[..., 0] ** 2 + c * G[..., 1] ** 2 + d * G[..., 0] * G[..., 1]
    return f[..., None] * np.array([1.0, -0.5])


def test_box_chart_layout():
    chart = MeshChart.box(((0.0, 2.0), (-1.0, 1.0)), (5, 9))
    assert chart.shape == (5, 9)
    assert not any(chart.periodic)
    assert np.allclose(chart.spacing, [0.5, 0.25])
    G = chart.chart_grid()
    assert G.shape == (5, 9, 2)
    assert np.array_equal(G[0, 0], [0.0, -1.0])
    assert np.array_equal(G[-1, -1], [2.0, 1.0])


def test_annulus_chart_is_periodic_in_angle():
    chart = MeshChart.annulus((0.5, 2.0), (8, 12))
    assert chart.periodic == (False, True)
    x = chart.to_cartesian(np.array([[1.0, 0.0], [1.0, np.pi / 2]]))
    assert np.max(np.abs(x - [[1.0, 0.0], [0.0, 1.0]])) < 1e-12
    back = chart.to_chart(x)
    assert np.max(np.abs(back - [[1.0, 0.0], [1.0, np.pi / 2]])) < 1e-12
    with pytest.raises(ValueError):
        MeshChart.annulus((0.0, 1.0), (8, 8))


def test_interp_reproduces_quadratics():
    chart = MeshChart.box(((0.0, 2.0), (-1.0, 1.0)), (25, 21))
    vals = _quadratic_values(chart)
    rng = np.random.default_rng(0)
    q = np.stack([rng.uniform(0.2, 1.8, 40), rng.uniform(-0.8, 0.8, 40)],
                 axis=1)
    got, grad = interp_mesh(chart, vals, q, derivative=True)
    f = (1.0 + 0.5 * q[:, 0] ** 2 - 0.3 * q[:, 1] ** 2
         + 0.7 * q[:, 0] * q[:, 1])
    truth = f[:, None] * np.array([1.0, -0.5])
    assert np.max(np.abs(got - truth)) < 1e-12
    gx = (1.0 * q[:, 0] + 0.7 * q[:, 1])[:, None] * np.array([1.0, -0.5])
    gy = (-0.6 * q[:, 1] + 0.7 * q[:, 0])[:, None] * np.array([1.0, -0.5])
    assert np.max(np.abs(grad[..., 0] - gx)) < 1e-12
    assert np.max(np.abs(grad[..., 1] - gy)) < 1e-12


def test_interp_is_exact_at_nodes():
    chart = MeshChart.annulus((0.5, 2.0), (10, 16))
    base = chart.base_points()
    G = chart.chart_grid()
    got = interp_mesh(chart, base, G.reshape(-1, 2))
    assert np.max(np.abs(got - base.reshape(-1, 2))) < 1e-12


def test_periodic_axis_wraps_consistently():
    chart = MeshChart.annulus((0.5, 2.0), (10, 16))
    base = chart.base_points()
    q = np.array([[1.2, 0.01], [1.2, 0.01 + 2 * np.pi]])
    out = interp_mesh(chart, base, q)
    assert np.max(np.abs(out[0] - out[1])) < 1e-12


def test_identity_map_jacobian_on_annulus():
    chart = MeshChart.annulus((0.5, 2.0), (30, 48))
    J = mesh_jacobian(chart, chart.base_points())
    assert np.max(np.abs(J - np.eye(2))) < 1e-4


def test_mesh_jacobian_caches_the_inverse_embedding():
    chart = MeshChart.annulus((0.5, 2.0), (12, 16))
    vals = chart.base_points() ** 2
    J = mesh_jacobian(chart, vals)
    inv = chart.node_inverse_jacobian
    assert inv is chart.node_inverse_jacobian and not inv.flags.writeable
    emb = chart.embedding_jacobian(chart.chart_grid())
    assert np.array_equal(inv, np.linalg.inv(emb))
    assert np.array_equal(mesh_jacobian(chart, vals), J)


def test_linear_map_jacobian_on_box():
    chart = MeshChart.box(((0.0, 1.0), (0.0, 1.0)), (9, 9))
    M = np.array([[1.3, -0.4], [0.2, 0.8]])
    vals = np.einsum("ij,rcj->rci", M, chart.base_points())
    J = mesh_jacobian(chart, vals)
    assert np.max(np.abs(J - M)) < 1e-10


def test_inversion_round_trip():
    chart = MeshChart.annulus((0.5, 2.0), (30, 48))
    base = chart.base_points()
    M = np.array([[1.1, 0.2], [-0.1, 0.9]])
    vals = np.einsum("ij,rcj->rci", M, base) + 0.05 * np.sin(base)
    rng = np.random.default_rng(3)
    qc = np.stack([rng.uniform(0.8, 1.8, 30), rng.uniform(0.5, 5.5, 30)],
                  axis=1)
    targets = interp_mesh(chart, vals, qc)
    back = invert_mesh_map(chart, vals, targets)
    fwd = interp_mesh(chart, vals, back)
    assert np.max(np.abs(fwd - targets)) < 1e-9


def test_inversion_fails_for_unreachable_target():
    chart = MeshChart.annulus((0.5, 2.0), (20, 32))
    vals = chart.base_points()
    with pytest.raises(MeshInversionError):
        invert_mesh_map(chart, vals, np.array([[25.0, 25.0]]))
    # so far out that the squared distances to the nodes overflow
    with pytest.raises(MeshInversionError):
        invert_mesh_map(chart, vals, np.array([[1e200, 1e200]]))


def test_interp_at_non_finite_query_is_nan():
    # each chart kind, each axis, NaN and both infinities; no warning
    charts = [MeshChart.annulus((0.5, 2.0), (8, 8)),
              MeshChart.box(((0.0, 2.0), (-1.0, 1.0)), (5, 9))]
    for chart, axis, bad in itertools.product(charts, (0, 1),
                                              (np.nan, np.inf, -np.inf)):
        query = np.array([[1.0, 0.5]])
        query[0, axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, grad = interp_mesh(chart, chart.base_points(), query,
                                    derivative=True)
        assert np.isnan(out).all() and np.isnan(grad).all()


def test_box_extrapolates_linear_fields_past_either_axis():
    # a bounded axis 1 keeps its end cells as axis 0 does, so a linear
    # field is reproduced more than two spacings past either end of it
    chart = MeshChart.box(((0.0, 2.0), (-1.0, 1.0)), (5, 9))
    M = np.array([[2.0, 3.0], [-1.0, 0.5]])
    q = np.array([[1.0, 1.6], [0.7, -1.6], [2.6, 0.3], [-0.6, 0.4]])
    got, grad = interp_mesh(chart, chart.base_points() @ M.T, q,
                            derivative=True)
    assert np.max(np.abs(got - q @ M.T)) < 1e-12
    assert np.max(np.abs(grad - M)) < 1e-12


def test_far_queries_past_a_bounded_axis_stay_finite_and_linear():
    # far past a bounded axis the weights continue along the end tangent:
    # a linear field keeps its value to rounding, with no overflow warning;
    # at 1e200 spacings the cross-axis derivative cancels, so the gradient
    # is checked only at 1e6
    box = MeshChart.box(((0.0, 2.0), (-1.0, 1.0)), (5, 9))
    M = np.array([[2.0, 3.0], [-1.0, 0.5]])
    annulus = MeshChart.annulus((0.5, 2.0), (8, 8))
    a = np.array([[1.5, 0.0], [-0.7, 0.0]])  # linear in the radius only
    cases = [(box, box.base_points() @ M.T, M, axis) for axis in (0, 1)]
    cases.append((annulus, annulus.chart_grid() @ a.T, a, 0))
    for (chart, values, lin, axis), k, (end, sign) in itertools.product(
            cases, (1e6, 1e200), ((0, -1), (-1, 1))):
        ends = chart.coords0 if axis == 0 else chart.coords1
        q = np.array([[1.0, 0.3]])
        q[0, axis] = ends[end] + sign * k * chart.spacing[axis]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, grad = interp_mesh(chart, values, q, derivative=True)
        want = q @ lin.T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if k == 1e6:
            assert np.max(np.abs(grad - lin)) < 1e-15 * k


def test_embedding_jacobian_matches_fd():
    chart = MeshChart.annulus((0.5, 2.0), (8, 8))
    c = np.array([[1.3, 0.8]])
    J = chart.embedding_jacobian(c)[0]
    eps = 1e-7
    fd = np.zeros((2, 2))
    for j in range(2):
        d = np.zeros(2)
        d[j] = eps
        fd[:, j] = ((chart.to_cartesian(c + d) - chart.to_cartesian(c - d))
                    / (2 * eps))[0]
    assert np.max(np.abs(J - fd)) < 1e-6
