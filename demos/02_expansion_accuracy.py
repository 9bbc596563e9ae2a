"""Accuracy of the linear and quadratic expansions of the objective.

As the covariance of the uncertain field is scaled by eps, the mean
absolute error of the linear expansion decays like eps while the quadratic
expansion decays like eps^1.5.  The table below reproduces that behavior
with a frozen Monte Carlo sample shared across all eps values.
"""

import numpy as np

import riskquad as rq
from riskquad.ouu import truncation_rate_study

mesh = rq.Mesh(20, 10, 2.0, 1.0)
problem = rq.PoissonFlowProblem(mesh, wells=rq.WellConfig(sigma=0.1))
gf = rq.GaussianField(problem.space, 2e-2, 4.0)
z = np.full(problem.n_controls, 4.0)

study = truncation_rate_study(
    problem, gf, z, eps_list=[2.0**-k for k in range(7)], n_mc=300, seed=0
)

print(f"{'eps':>10} {'E|err_lin|':>12} {'E|err_quad|':>12}")
for eps, el, eq in zip(study.eps, study.err_lin, study.err_quad):
    print(f"{eps:10.5f} {el:12.5f} {eq:12.5f}")
print(f"\nfitted slopes: linear {study.slope_lin:.2f} (theory 1.0), "
      f"quadratic {study.slope_quad:.2f} (theory 1.5)")
