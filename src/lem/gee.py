"""Working-independence GEE comparator (linear mean, identity link).

Coefficients are pooled least squares; standard errors come from the
cluster-robust sandwich with subjects as clusters (bread X'X, meat the sum
of per-cluster X_i'r_i outer products).  No finite-sample correction is
applied to the sandwich.

Two variants: ``adjusted`` regresses on [X, A]; ``excluded`` drops treated
rows and regresses on X alone.  A three-level medication coding is supported
by the caller through pre-encoded dummy columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import matrix_rank, subset_rows
from .errors import AllRowsExcluded, SingularDesign
from .fit import FitRecord
from .numerics import cluster_sandwich, colwise_matvec, exact_gram, exact_sum, solve_sym

VARIANTS = ("adjusted", "excluded")


@dataclass(kw_only=True)
class GeeFit(FitRecord):
    """Pooled least-squares coefficients with their cluster-robust covariance."""

    variant: str

    @property
    def coef(self):
        return self.estimates


def fit_gee_independence(dataset, variant="adjusted"):
    """Pooled least squares with Liang-Zeger cluster-robust covariance."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")

    names = [f"beta:{c}" for c in dataset.x_names]
    if variant == "adjusted":
        design = np.hstack([dataset.x, dataset.a[:, None]])
        names.append("beta:treatment")
    else:
        keep = dataset.a == 0.0
        if not keep.any():
            raise AllRowsExcluded("every observation is treated; nothing left to fit")
        dataset = subset_rows(dataset, keep)
        design = dataset.x

    if matrix_rank(design) < design.shape[1]:
        raise SingularDesign(f"{variant} GEE design matrix is rank deficient")

    # X'X and X'y as exact sums, invariant to row ordering
    gram = exact_gram(design)
    coef = solve_sym(gram, exact_sum(design * dataset.y[:, None]))
    resid = dataset.y - colwise_matvec(design, coef)
    cov = cluster_sandwich(gram, design * resid[:, None], dataset.subject_starts[:-1])

    return GeeFit(
        model=f"gee-{variant}",
        param_names=names,
        estimates=coef,
        cov_robust=cov,
        j_x=dataset.x.shape[1],
        n_subjects=dataset.n_subjects,
        n_rows=dataset.n_rows,
        variant=variant,
    )

