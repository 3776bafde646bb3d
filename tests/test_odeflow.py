"""Unit-time flows, variational Jacobians and curve averages."""

import numpy as np
import pytest

from jumpflow.errors import IntegrationFailure
from jumpflow.odeflow import (OdeConfig, VectorFieldSet, curve_average, expm,
                              flow, flow_with_jacobian)
from jumpflow.reference import matrix_exp

ROT = np.array([[[0.0, -1.0], [1.0, 0.0]]])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_expm_against_oracle(n):
    rng = np.random.default_rng(40 + n)
    for norm in np.logspace(-8, 2, 21):
        for _ in range(3):
            A = rng.standard_normal((n, n))
            A *= norm / np.linalg.norm(A, 1)
            ref = matrix_exp(A)
            E = expm(A)
            assert np.max(np.abs(E - ref.value)) <= ref.error_bound
            if norm <= 30:
                rel = (np.linalg.norm(E - ref.value, 1)
                       / np.linalg.norm(ref.value, 1))
                assert rel <= 1e-13


def test_expm_exact_cases():
    eps = np.finfo(float).eps
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    # a nilpotent Jordan block: the series stops after A^2 / 2
    J = np.diag([1.0, 1.0], 1)
    want = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(expm(J) - want)) <= 4 * eps
    quarter = expm(np.pi / 2 * ROT[0])
    assert np.max(np.abs(quarter - [[0.0, -1.0], [1.0, 0.0]])) <= 4 * eps


def test_linear_flow_uses_exponential():
    fields = VectorFieldSet.linear(ROT)
    x = flow(fields, np.array([np.pi / 2]), np.array([1.0, 0.0]), 1.0,
             OdeConfig())
    assert np.max(np.abs(x - [0.0, 1.0])) < 1e-12


def test_generic_rk4_matches_exponential():
    fields = VectorFieldSet.linear(ROT)
    cfg = OdeConfig(substeps=256, use_expm=False)
    x = flow(fields, np.array([np.pi / 2]), np.array([1.0, 0.0]), 1.0, cfg)
    assert np.max(np.abs(x - [0.0, 1.0])) < 1e-10


def test_two_field_linear_flow_against_oracle():
    rng = np.random.default_rng(2)
    A = rng.uniform(-0.5, 0.5, size=(2, 3, 3))
    fields = VectorFieldSet.linear(A)
    w = np.array([0.8, -0.6])
    x0 = np.array([1.0, -0.5, 0.25])
    combo = np.einsum("i,ijk->jk", w, A)
    expect = matrix_exp(combo).value @ x0
    got = flow(fields, w, x0, 1.0, OdeConfig(substeps=64, use_expm=False))
    assert np.max(np.abs(got - expect)) < 1e-9
    fast = flow(fields, w, x0, 1.0, OdeConfig())
    assert np.max(np.abs(fast - expect)) < 1e-12


def test_rk4_order_on_riccati():
    # x' = x^2, x(0) = 0.5 has the exact solution 1/(2 - t); at t = 1, x = 1
    def f(x):
        return x * x

    def jac(x):
        return (2.0 * x)[..., None, None] * 0 + np.diag(2.0 * np.ravel(x))

    fields = VectorFieldSet.from_callables(1, [f], vectorized=True)
    errs = []
    for sub in (4, 8, 16):
        x = flow(fields, np.array([1.0]), np.array([0.5]), 1.0,
                 OdeConfig(substeps=sub, use_expm=False))
        errs.append(abs(float(x[0]) - 1.0))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5
    assert np.log2(errs[1] / errs[2]) > 3.5


def test_flow_on_batch_of_points():
    fields = VectorFieldSet.linear(ROT)
    X0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    out = flow(fields, np.array([0.3]), X0, 1.0, OdeConfig())
    R = matrix_exp(ROT[0], 0.3).value
    assert np.max(np.abs(out - X0 @ R.T)) < 1e-12


def test_variational_jacobian_matches_fd():
    def f(p):
        p = np.asarray(p, dtype=float)
        return np.stack([np.sin(p[..., 1]), p[..., 0] ** 2], axis=-1)

    fields = VectorFieldSet.from_callables(2, [f], vectorized=True)
    x0 = np.array([0.4, 0.3])
    w = np.array([0.7])
    cfg = OdeConfig(substeps=64, use_expm=False)
    _, J = flow_with_jacobian(fields, w, x0, 1.0, cfg)
    eps = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = eps
        plus = flow(fields, w, x0 + dx, 1.0, cfg)
        minus = flow(fields, w, x0 - dx, 1.0, cfg)
        fd[:, j] = (plus - minus) / (2 * eps)
    assert np.max(np.abs(J - fd)) < 1e-8


def test_flow_equals_state_of_flow_with_jacobian():
    def f(p):
        return np.stack([np.sin(p[..., 1]), p[..., 0] ** 2], axis=-1)

    def g(p):
        return np.array([np.sin(p[1]), p[0] ** 2])

    kinds = [VectorFieldSet.from_callables(2, [f], vectorized=True),
             VectorFieldSet.linear(ROT),
             VectorFieldSet.from_callables(2, [g])]
    X0 = np.array([[0.4, 0.3], [-0.2, 0.1]])
    for fields in kinds:
        for use_expm in (True, False):
            cfg = OdeConfig(substeps=16, use_expm=use_expm)
            for x0 in (X0[0], X0):
                x = flow(fields, np.array([0.7]), x0, 1.0, cfg)
                xj, _ = flow_with_jacobian(fields, np.array([0.7]), x0, 1.0,
                                           cfg)
                assert np.array_equal(x, xj)


def test_linear_jacobian_is_exponential():
    fields = VectorFieldSet.linear(ROT)
    _, J = flow_with_jacobian(fields, np.array([0.9]), np.array([2.0, -1.0]),
                              1.0, OdeConfig())
    assert np.max(np.abs(J - matrix_exp(ROT[0], 0.9).value)) < 1e-12


def test_curve_average_linear_readout():
    # averaging H(x) = x along the orbit of x' = B x equals
    # B^{-1}(e^B - I) x0 analytically
    B = np.array([[0.2, -0.4], [0.4, 0.2]])
    fields = VectorFieldSet.linear(B[None])
    x0 = np.array([1.0, 1.0])

    def H(x):
        return np.asarray(x, dtype=float)

    avg = curve_average(H, fields, np.array([1.0]), x0, OdeConfig(),
                        quad_nodes=64)
    expect = np.linalg.solve(B, (matrix_exp(B).value - np.eye(2)) @ x0)
    assert np.max(np.abs(avg - expect)) < 1e-10


def test_curve_average_constant_is_identity():
    fields = VectorFieldSet.linear(ROT)

    def H(x):
        return np.array([[3.0]])

    avg = curve_average(H, fields, np.array([0.5]), np.array([1.0, 0.0]),
                        OdeConfig(), quad_nodes=8)
    assert np.max(np.abs(avg - 3.0)) < 1e-14


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_blowup_raises_with_time():
    def f(x):
        return x * x

    fields = VectorFieldSet.from_callables(1, [f], vectorized=True)
    with pytest.raises(IntegrationFailure) as err:
        flow(fields, np.array([1.0]), np.array([2.0]), 1.0,
             OdeConfig(substeps=64, use_expm=False))
    assert err.value.time is None or err.value.time <= 1.0


def test_field_matrix_shapes():
    fields = VectorFieldSet.linear(np.zeros((3, 2, 2)))
    single = fields.field_matrix(np.array([1.0, 2.0]))
    batch = fields.field_matrix(np.ones((5, 2)))
    assert single.shape == (2, 3)
    assert batch.shape == (5, 2, 3)
