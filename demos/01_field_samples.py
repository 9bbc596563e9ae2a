"""Draw realizations of the uncertain log-conductivity field.

The field follows a centered Gaussian law whose covariance is the inverse
of the square of a shifted Laplacian, discretized consistently with the
finite element mass matrix; a problem's parameter is its ``mean`` plus a
draw.  Shrinking the covariance scale with ``gf.scaled`` concentrates draws
around zero; the script prints summary statistics that show the expected
scaling.
"""

import numpy as np

import riskquad as rq

mesh = rq.Mesh(40, 20, 2.0, 1.0)
gf = rq.field_on_mesh(mesh, kappa=2e-2, alpha=4.0)

print("three realizations at full covariance:")
draws = gf.sample_batch(3, seed=0)
for k in range(3):
    d = draws[:, k]
    print(f"  sample {k}: min={d.min():+.3f} max={d.max():+.3f} "
          f"std={d.std():.3f}")

print("\npointwise standard deviation shrinks like sqrt(eps):")
for eps in (1.0, 0.25, 0.0625):
    batch = gf.scaled(eps).sample_batch(2000, seed=1)
    print(f"  eps={eps:<7} mean node std = {batch.std(axis=1).mean():.4f}")

f = np.ones(mesh.n_nodes)
probe_var = gf.space.inner(f, gf.apply_C(f))
print(f"\nvariance of the mean-value functional from the covariance "
      f"operator: {probe_var:.5f}")
vals = f @ (gf.space.mass @ gf.sample_batch(4000, seed=2))
print(f"same functional from 4000 samples:                        "
      f"{vals.var(ddof=1):.5f}")
