"""Trace estimation of the covariance-preconditioned Hessian.

The mean and variance corrections of the quadratic expansion are traces
that would cost one Hessian action per parameter dimension to compute
exactly.  Two cheap estimators are compared against the dense value on a
mesh small enough to assemble everything: averaged quadratic forms over
Gaussian probes, and sums over the dominant eigenpairs of the
preconditioned Hessian.
"""

import numpy as np

import riskquad as rq
from riskquad.surrogate import estimate_traces

mesh = rq.build_mesh(8, 4, 2.0, 1.0)
problem = rq.PoissonFlowProblem(mesh, wells=rq.default_wells(sigma=0.2))
gf = rq.GaussianField(problem.space, 2e-2, 4.0)
surr = problem.surrogate(np.full(problem.n_controls, 4.0))

n = mesh.n_nodes
M = problem.space.mass.toarray()
A = (gf.kappa * problem.space.natural_stiffness
     + gf.alpha * problem.space.mass).toarray()
Ainv = np.linalg.inv(A)
C_op = Ainv @ M @ Ainv @ M
H = np.column_stack([surr.hess_action(e) for e in np.eye(n)])
exact = np.trace(C_op @ H)
print(f"dense trace of the preconditioned Hessian ({n} columns): {exact:.4f}")

print("\nrandomized estimates (single seed) and eigenbasis sums:")
print(f"{'n_tr':>5} {'randomized':>12} {'eigenbasis':>12}")
for n_tr in (2, 5, 10, 20, 45):
    r = estimate_traces(surr, gf, "randomized", n_tr=n_tr, seed=1)
    e = estimate_traces(surr, gf, "eigenbasis", n_tr=min(n_tr, n), seed=1)
    print(f"{n_tr:5d} {r.tr_hc:12.4f} {e.tr_hc:12.4f}")

seeds = [estimate_traces(surr, gf, "randomized", n_tr=10, seed=s).tr_hc
         for s in range(50)]
print(f"\nrandomized mean over 50 seeds: {np.mean(seeds):.4f} "
      f"(unbiased; dense value {exact:.4f})")
