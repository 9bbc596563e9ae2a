"""End-to-end risk-averse well control on a reduced mesh.

Minimizes mean + beta/2 variance of the tracking objective over bounded
injection rates, with a continuation in the risk-aversion weight.  After
optimization, the distribution of the true objective is sampled at the
initial and optimal controls: the optimum shifts the distribution left
(smaller mean) and tightens it (smaller variance).
"""

import numpy as np

import riskquad as rq

mesh = rq.build_mesh(24, 12, 2.0, 1.0)
problem = rq.PoissonFlowProblem(mesh, wells=rq.default_wells(sigma=0.08))
gf = rq.GaussianField(problem.space, 2e-2, 4.0)
cfg = rq.OuuConfig(beta=1.0, gamma=1e-5, n_tr=10,
                   beta_schedule=(0.0, 0.25, 0.5, 0.75, 1.0),
                   max_iter=60, seed=0)
z0 = np.full(problem.n_controls, 4.0)

result = rq.optimize(problem, gf, cfg, z0=z0)
print("continuation legs (expansion statistics at each optimum):")
for leg in result.legs:
    print(f"  beta={leg.beta:<5} J={leg.report.value:9.4f} "
          f"mean={leg.report.mean_term:8.4f} "
          f"var={leg.report.variance_term:8.4f} "
          f"solves/eval={4 + 4 * cfg.n_tr}")

print("\noptimal injection rates:")
print(np.array2string(result.z, precision=2, suppress_small=True))

# both controls on the same 800 draws, one factorization per draw
risk = rq.evaluate_true_risk(problem, gf, np.column_stack([z0, result.z]), 800,
                             seed=3, with_surrogates=False)
for k, tag in enumerate(("initial", "optimal")):
    print(f"{tag:8s} control: E[objective]={risk.mean[k]:10.4f} "
          f"Var[objective]={risk.variance[k]:10.4f}")
