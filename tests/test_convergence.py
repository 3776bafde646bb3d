"""Order fits of refinement studies."""

import numpy as np
import pytest

from jumpflow.convergence import fit_order


def test_fit_order_is_the_log_log_slope():
    h = np.array([0.1, 0.05, 0.025])
    assert fit_order(h, 3.0 * h ** 2) == pytest.approx(2.0)
    # zero and non-finite errors drop out; one point left reads as exact
    assert fit_order(h, [0.0, np.nan, 1e-3]) == np.inf


@pytest.mark.parametrize("steps, errors", [
    ([0.1, 0.05], [1e-2]),
    ([0.1, 0.05], [[1e-2, 1e-3]]),
], ids=["shorter", "other-shape"])
def test_fit_order_checks_that_its_inputs_align(steps, errors):
    with pytest.raises(ValueError, match="step sizes and errors must align"):
        fit_order(steps, errors)
