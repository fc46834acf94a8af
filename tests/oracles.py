"""Finite-difference oracles shared by the test modules."""

import numpy as np


def fd_jacobian(fun, x, step_scale=1e-5):
    """Central-difference Jacobian of a vector field, symmetrized.

    Steps scale with the coordinate magnitude, ``step_scale * max(1, |x_k|)``.
    Central differences are exact for fields that are linear in ``x`` (the
    gradient of a quadratic), up to roundoff.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    jac = np.empty((dim, dim))
    for k in range(dim):
        h = step_scale * max(1.0, abs(x[k]))
        up, dn = x.copy(), x.copy()
        up[k] += h
        dn[k] -= h
        jac[:, k] = (np.asarray(fun(up)) - np.asarray(fun(dn))) / (2.0 * h)
    return 0.5 * (jac + jac.T)
