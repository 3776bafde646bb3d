"""Unit-time flows, variational Jacobians and curve averages."""

import warnings

import numpy as np
import pytest

from jumpflow.errors import IntegrationFailure
from jumpflow.odeflow import (MarcusConfig, VectorFieldSet, curve_average,
                              expm, flow, flow_with_jacobian)
from jumpflow.reference import matrix_exp

ROT = np.array([[[0.0, -1.0], [1.0, 0.0]]])


def _as_callable(mats):
    """The linear set of ``mats`` given as one callable x -> [M_1 x .. M_m x]
    with its constant derivative: the same fields, flowed by RK4 instead of
    the exponential."""
    D = mats.transpose(1, 0, 2)
    return VectorFieldSet.from_callable(
        mats.shape[1], mats.shape[0],
        lambda X: np.einsum("mij,...j->...im", mats, X),
        lambda X: np.broadcast_to(D, np.shape(X)[:-1] + D.shape))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_expm_against_oracle(n):
    rng = np.random.default_rng(40 + n)
    for norm in np.logspace(-8, 2, 21):
        for _ in range(3):
            A = rng.standard_normal((n, n))
            A *= norm / np.linalg.norm(A, 1)
            ref = matrix_exp(A)
            E = expm(A)
            bound = 1e-12 * max(1.0, np.linalg.norm(ref, 1))
            assert np.max(np.abs(E - ref)) <= bound
            if norm <= 30:
                rel = np.linalg.norm(E - ref, 1) / np.linalg.norm(ref, 1)
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


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_expm_is_expm_of_each_matrix(n):
    # 1-norms up to about 16: squaring counts from 0 to 2 within one stack
    rng = np.random.default_rng(70 + n)
    A = rng.standard_normal((4, 6, n, n))
    A *= rng.uniform(0.0, 16.0, (4, 6, 1, 1)) / np.linalg.norm(
        A, 1, axis=(-2, -1))[..., None, None]
    squarings = np.frexp(np.linalg.norm(A, 1, axis=(-2, -1)) / 5.37)[1]
    assert len(np.unique(np.maximum(squarings, 0))) > 1
    E = expm(A)
    assert E.shape == A.shape
    for idx in np.ndindex(A.shape[:2]):
        assert np.array_equal(E[idx], expm(A[idx]))


def test_stacked_expm_isolates_non_finite_matrices():
    A = np.stack([0.3 * np.eye(2), np.full((2, 2), np.inf),
                  np.full((2, 2), np.nan), 12.0 * ROT[0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = expm(A)
    finite = np.isfinite(E).all(axis=(-2, -1))
    assert finite.tolist() == [True, False, False, True]
    assert np.array_equal(E[0], expm(A[0]))
    assert np.array_equal(E[3], expm(A[3]))


def test_linear_flow_uses_exponential():
    fields = VectorFieldSet.linear(ROT)
    x = flow(fields, np.array([np.pi / 2]), np.array([1.0, 0.0]), 1.0,
             MarcusConfig())
    assert np.max(np.abs(x - [0.0, 1.0])) < 1e-12


def test_generic_rk4_matches_exponential():
    fields = _as_callable(ROT)
    cfg = MarcusConfig(substeps=256)
    x = flow(fields, np.array([np.pi / 2]), np.array([1.0, 0.0]), 1.0, cfg)
    assert np.max(np.abs(x - [0.0, 1.0])) < 1e-10


def test_two_field_linear_flow_against_oracle():
    rng = np.random.default_rng(2)
    A = rng.uniform(-0.5, 0.5, size=(2, 3, 3))
    w = np.array([0.8, -0.6])
    x0 = np.array([1.0, -0.5, 0.25])
    combo = np.einsum("i,ijk->jk", w, A)
    expect = matrix_exp(combo) @ x0
    got = flow(_as_callable(A), w, x0, 1.0, MarcusConfig(substeps=64))
    assert np.max(np.abs(got - expect)) < 1e-9
    fast = flow(VectorFieldSet.linear(A), w, x0, 1.0, MarcusConfig())
    assert np.max(np.abs(fast - expect)) < 1e-12


def test_rk4_order_on_riccati():
    # x' = x^2, x(0) = 0.5 has the exact solution 1/(2 - t); at t = 1, x = 1
    fields = VectorFieldSet.from_callable(1, 1, lambda x: (x * x)[..., None])
    errs = []
    for sub in (4, 8, 16):
        x = flow(fields, np.array([1.0]), np.array([0.5]), 1.0,
                 MarcusConfig(substeps=sub))
        errs.append(abs(float(x[0]) - 1.0))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5
    assert np.log2(errs[1] / errs[2]) > 3.5


def test_flow_on_batch_of_points():
    fields = VectorFieldSet.linear(ROT)
    X0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    out = flow(fields, np.array([0.3]), X0, 1.0, MarcusConfig())
    R = matrix_exp(ROT[0], 0.3)
    assert np.max(np.abs(out - X0 @ R.T)) < 1e-12


def test_variational_jacobian_matches_fd():
    def H(p):
        return np.stack([np.sin(p[..., 1]), p[..., 0] ** 2], axis=-1)[..., None]

    fields = VectorFieldSet.from_callable(2, 1, H)
    x0 = np.array([0.4, 0.3])
    w = np.array([0.7])
    cfg = MarcusConfig(substeps=64)
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
    def H(p):
        return np.stack([np.sin(p[..., 1]), p[..., 0] ** 2], axis=-1)[..., None]

    def point_only(p):
        return np.array([[np.sin(p[1])], [p[0] ** 2]])

    kinds = [VectorFieldSet.from_callable(2, 1, H),
             VectorFieldSet.linear(ROT), _as_callable(ROT)]
    X0 = np.array([[0.4, 0.3], [-0.2, 0.1]])
    w, cfg = np.array([0.7]), MarcusConfig(substeps=16)
    for fields in kinds:
        for x0 in (X0[0], X0):
            x = flow(fields, w, x0, 1.0, cfg)
            xj, _ = flow_with_jacobian(fields, w, x0, 1.0, cfg)
            assert np.array_equal(x, xj)
    # a callable written for one point flows one point; on a batch its value
    # has the wrong shape, an error rather than a wrong flow
    fields = VectorFieldSet.from_callable(2, 1, point_only)
    x = flow(fields, w, X0[0], 1.0, cfg)
    assert np.array_equal(x, flow_with_jacobian(fields, w, X0[0], 1.0, cfg)[0])
    with pytest.raises(ValueError):
        flow(fields, w, X0, 1.0, cfg)


def test_linear_jacobian_is_exponential():
    fields = VectorFieldSet.linear(ROT)
    _, J = flow_with_jacobian(fields, np.array([0.9]), np.array([2.0, -1.0]),
                              1.0, MarcusConfig())
    assert np.max(np.abs(J - matrix_exp(ROT[0], 0.9))) < 1e-12


def test_curve_average_linear_readout():
    # averaging H(x) = x along the orbit of x' = B x equals
    # B^{-1}(e^B - I) x0 analytically
    B = np.array([[0.2, -0.4], [0.4, 0.2]])
    fields = VectorFieldSet.linear(B[None])
    x0 = np.array([1.0, 1.0])

    def H(x):
        return np.asarray(x, dtype=float)

    avg = curve_average(H, fields, np.array([1.0]), x0, MarcusConfig())
    expect = np.linalg.solve(B, (matrix_exp(B) - np.eye(2)) @ x0)
    assert np.max(np.abs(avg - expect)) < 1e-10


@pytest.mark.parametrize("substeps, calls_expected", [(64, 256), (1, 8)])
def test_curve_average_steps_substeps_per_unit_time(substeps, calls_expected):
    # one Simpson interval per substep, an even count: 64 intervals of 1/64
    # at 64 substeps, 2 of 1/2 at 1; one RK4 step of 4 field evaluations
    # per interval
    calls = []

    def square(x):
        calls.append(1)
        return (x * x)[..., None]

    fields = VectorFieldSet.from_callable(1, 1, square)
    curve_average(lambda x: x, fields, np.array([1.0]), np.array([0.5]),
                  MarcusConfig(substeps=substeps))
    assert len(calls) == calls_expected


def test_curve_average_constant_is_identity():
    fields = VectorFieldSet.linear(ROT)

    def H(x):
        return np.array([[3.0]])

    avg = curve_average(H, fields, np.array([0.5]), np.array([1.0, 0.0]),
                        MarcusConfig(substeps=8))
    assert np.max(np.abs(avg - 3.0)) < 1e-14


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_blowup_raises_with_time():
    fields = VectorFieldSet.from_callable(1, 1, lambda x: (x * x)[..., None])
    with pytest.raises(IntegrationFailure) as err:
        flow(fields, np.array([1.0]), np.array([2.0]), 1.0,
             MarcusConfig(substeps=64))
    assert err.value.time is None or err.value.time <= 1.0


def test_field_matrix_shapes():
    fields = VectorFieldSet.linear(np.zeros((3, 2, 2)))
    single = fields.field_matrix(np.array([1.0, 2.0]))
    batch = fields.field_matrix(np.ones((5, 2)))
    assert single.shape == (2, 3)
    assert batch.shape == (5, 2, 3)


def test_vectorized_field_output_must_match_point_shape():
    # an (n, m) value for a (B, n) batch would broadcast silently into
    # whatever consumes the field matrix
    def single(x):
        return np.array([[1.0, 0.0], [0.0, 1.0]])

    fields = VectorFieldSet.from_callable(2, 2, single)
    assert fields.field_matrix(np.array([1.0, 2.0])).shape == (2, 2)
    with pytest.raises(ValueError,
                       match=r"shape \(2, 2\), not \(5, 2, 2\) \(\.\.\., n, m\)"):
        fields.field_matrix(np.ones((5, 2)))


def test_field_jacobian_of_each_kind():
    # [..., a, i, b] is d(X_i)_a / dx_b: the matrices of a linear set, the
    # given derivative, or central differences of the field matrix
    A = np.array([[[0.0, -1.0], [1.0, 0.0]], [[0.5, 0.2], [0.0, -0.3]]])
    X = np.array([[0.4, -0.3], [1.2, 0.5], [-0.7, 2.0]])
    want = np.broadcast_to(A.transpose(1, 0, 2), (3, 2, 2, 2))
    exact = _as_callable(A)
    fd = VectorFieldSet.from_callable(2, 2, exact.H)
    assert np.array_equal(VectorFieldSet.linear(A).field_jacobian(X), want)
    assert np.array_equal(exact.field_jacobian(X), want)
    assert np.max(np.abs(fd.field_jacobian(X) - want)) < 1e-9
    for i in range(2):
        assert np.array_equal(exact.combo_jacobian(X, np.eye(2)[i]), want[:, :, i])


def test_combo_jacobian_skips_fields_of_weight_zero():
    # field 0 is x^(1/3), its derivative infinite at 0: with weight 0 it adds
    # nothing there, not the NaN of 0 * inf; the derivative is taken once,
    # and not at all when every weight is 0
    calls = []

    def H(x):
        return np.stack([np.cbrt(x), 2.0 * x], axis=-1)

    def dH(x):
        calls.append(1)
        with np.errstate(divide="ignore"):
            return np.stack([np.abs(x) ** (-2.0 / 3) / 3.0,
                             np.full(x.shape, 2.0)], axis=-1)[..., None]

    fields = VectorFieldSet.from_callable(1, 2, H, dH)
    X = np.array([[0.0], [8.0]])
    assert not np.isfinite(fields.field_jacobian(X)[0, 0, 0, 0])
    calls.clear()
    got = fields.combo_jacobian(X, [0.0, 1.5])
    assert np.array_equal(got, [[[3.0]], [[3.0]]]) and len(calls) == 1
    assert np.array_equal(fields.combo_jacobian(X, [0.0, 0.0]), np.zeros((2, 1, 1)))
    assert len(calls) == 1


@pytest.mark.parametrize("make, message", [
    (lambda: VectorFieldSet(2, matrices=np.zeros((1, 2, 3))),
     r"matrices must be \(m, n, n\)"),
    (lambda: VectorFieldSet(2, count=1),
     "need either matrices or a field-matrix callable"),
    (lambda: MarcusConfig(substeps=0), "substeps must be >= 1"),
], ids=["matrices-shape", "no-fields", "substeps-0"])
def test_argument_checks_name_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()
