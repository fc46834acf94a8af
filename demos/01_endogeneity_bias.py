"""Why naive adjustment fails under endogenous treatment.

Simulates one longitudinal cohort in which treatment uptake depends on the
same unobservables that drive the outcome (corr(eps, gamma) = 0.5), then
compares the treatment-adjusted working-independence regression against the
joint outcome/treatment model.  The joint model recovers the natural-history
coefficients; the naive regression does not.  It also estimates how the
treatment effect w'eta varies with the effect modifiers w, with a 95% CI at a
few profiles of w, where the adjusted regression has one effect for all.

Run:  python demos/01_endogeneity_bias.py
"""

import numpy as np

from lem import contrast, fit_gee_independence, fit_lem, wald
from lem.simulate import SimConfig, gen_covariates, gen_outcomes, substream

truth = np.array([0.0, 1.0, 1.0, 1.0, 1.0])

cfg = SimConfig(n_subjects=500, seed=42)
rng = substream(cfg.seed, 0)
dataset = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
print(f"simulated cohort: {dataset.n_subjects} subjects x {cfg.n_times} visits, "
      f"{dataset.a.mean():.0%} of rows treated\n")

lem = fit_lem(dataset)
gee = fit_gee_independence(dataset, "adjusted")

print(f"{'coefficient':>12} {'truth':>6} {'joint model':>16} {'adjusted GEE':>16}")
for j in range(5):
    w = wald(lem, j)
    print(f"{'beta_' + str(j):>12} {truth[j]:>6.2f} "
          f"{w.estimate:>8.3f} ({w.se:.3f}) "
          f"{gee.coef[j]:>8.3f} ({gee.se_robust()[j]:.3f})")

print(f"\nestimated error correlation rho = {lem.theta_hat.rho:.3f} (truth {cfg.rho})")
print(f"estimated outcome error SD      = {lem.theta_hat.sigma_y:.3f} (truth 1.0)")

# the effect at w weighs eta alone: w in the eta columns, zeros elsewhere
profiles = np.array([[1, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, -1, -1, -1, -1], [1, 2, 0, -1, 0]], dtype=float)
rows = np.zeros((len(profiles), len(lem.estimates)))
rows[:, lem.j_x:lem.j_x + profiles.shape[1]] = profiles
effect = contrast(lem, rows)
gee_effect = wald(gee, "beta:treatment")
print(f"\n{'treatment effect at w = (1, O3, O5, O6, O7)':<44} {'truth':>6}  joint model (95% CI)")
for w, true, est, lo, hi in zip(profiles, profiles @ np.asarray(cfg.eta), effect.estimate,
                                effect.lower, effect.upper):
    print(f"{str(tuple(int(v) for v in w)):<44} {true:>6.2f}  {est:>6.3f} ({lo:.3f}, {hi:.3f})")
print(f"adjusted GEE, one effect for every w: {gee_effect.estimate:.3f} "
      f"({gee_effect.ci[0]:.3f}, {gee_effect.ci[1]:.3f})")

print("\nThe covariates feeding the treatment equation (beta_2, beta_4) and the")
print("effect modifiers (beta_3, beta_4) are distorted in the naive fit; the")
print("joint model corrects them by modeling the treatment/outcome error")
print("correlation instead of assuming it away.")
