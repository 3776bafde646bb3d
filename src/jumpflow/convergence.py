"""Order-of-convergence fits for refinement studies."""

from __future__ import annotations

import numpy as np


def fit_order(step_sizes, errors) -> float:
    """Least-squares slope of log(error) against log(step size).

    Entries with zero (or non-finite) error are dropped; an empty or
    single-point fit returns inf, which reads as "already exact".
    """
    h = np.asarray(step_sizes, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape:
        raise ValueError("step sizes and errors must align")
    keep = np.isfinite(e) & (e > 0) & np.isfinite(h) & (h > 0)
    h, e = h[keep], e[keep]
    if h.shape[0] < 2:
        return float("inf")
    slope = np.polyfit(np.log(h), np.log(e), 1)[0]
    return float(slope)
