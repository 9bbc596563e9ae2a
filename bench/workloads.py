"""The benchmark's workloads: shared set-up, one operation each, and checks.

Every workload runs on the canonical ``paper_section6`` configuration
(79x39 mesh, 3200 nodes; kappa = 2e-2, alpha = 4, gamma = 1e-5; uniform
initial control z0 = 4).  A workload has a finite pool of inputs, each an
integer seed handed to the library, with reference outputs stored in
``references.json``.  The ``--seed`` of a run orders the pool, so the same
seed always gives the same sequence of operations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from riskquad.config import build_ouu_config, build_setup, resolve_config
from riskquad.ouu import RiskAverseObjective, evaluate_true_risk, optimize

N_TR = 40                 # canonical randomized trace budget
OPT_ITER_CAP = 4          # L-BFGS iterations
OPT_SCHEDULE = (1.0,)     # one leg at the canonical beta
MC_DRAWS = 25             # field draws per mc-risk operation
EIG_N_TR = 16             # eigenpairs for the eigenbasis trace mode


@dataclass
class Setup:
    """Everything an operation needs; built once per run."""

    problem: object
    gf: object
    ouu: object           # OuuConfig of the canonical study
    z0: np.ndarray
    surrogate: object = None


def build(register=None):
    """``build_setup`` plus the canonical randomized objective.

    ``register(problem, gf)`` is called before any solve, so a tracer can
    name the long-lived solvers.  The randomized objective is built the way
    ``optimize`` builds it (its probe draws are covariance solves) and then
    discarded.
    """
    cfg = resolve_config("paper_section6")
    _, gf, problem = build_setup(cfg)
    if register is not None:
        register(problem, gf)
    ouu_cfg = build_ouu_config(cfg.ouu, seed=cfg.seed)
    RiskAverseObjective(problem, gf, ouu_cfg)
    z0 = np.full(problem.n_controls, cfg.ouu.z0)
    return Setup(problem=problem, gf=gf, ouu=ouu_cfg, z0=z0)


# -- operations -------------------------------------------------------------


def run_optimize(s, seed):
    """Capped canonical ``optimize`` with randomized traces."""
    cfg = dataclasses.replace(
        s.ouu, n_tr=N_TR, beta=OPT_SCHEDULE[-1], beta_schedule=OPT_SCHEDULE,
        max_iter=OPT_ITER_CAP, seed=seed,
    )
    start = s.problem.counter.count
    res = optimize(s.problem, s.gf, cfg, z0=s.z0)
    return {
        "z": res.z,
        "J": res.final_report.value,
        "grad_calls": sum(len(leg.rows) for leg in res.legs),
        "iterations": sum(len(leg.rows) - 1 for leg in res.legs),
        "solves": s.problem.counter.count - start,
        "leg_solves": [leg.report.pde_solves for leg in res.legs],
    }


def run_mc(s, seed):
    """Monte Carlo risk at z0 with surrogate values, as ``optimize`` validates."""
    risk = evaluate_true_risk(
        s.problem, s.gf, s.z0, MC_DRAWS, seed=seed, with_surrogates=True,
        threads=1,
    )
    return {
        "mean": risk.mean,
        "variance": risk.variance,
        "quad_mean": float(np.mean(risk.quad_samples)),
    }


def run_eigen(s, seed):
    """Eigenbasis objective construction: the preconditioned eigensolve."""
    cfg = dataclasses.replace(
        s.ouu, n_tr=EIG_N_TR, trace_mode="eigenbasis", seed=seed,
    )
    obj = RiskAverseObjective(s.problem, s.gf, cfg, nominal_control=s.z0)
    return {"probes": np.array(obj.probes)}


# -- checked values -----------------------------------------------------------


def optimize_values(s, out):
    """Final control and value, exact counts, and the paper's solve identity.

    Each objective and each gradient costs ``2 + 2*n_tr`` counted solves, so
    the value calls follow from the solves spent and the gradients taken.
    """
    per_call = 2 + 2 * N_TR
    value_calls, rest = divmod(out["solves"], per_call)
    return {
        "z": np.asarray(out["z"]).tolist(),
        "J": out["J"],
        "iterations": out["iterations"],
        "value_calls": value_calls - out["grad_calls"] if rest == 0 else -1,
        "solves": out["solves"],
        "identity_holds": all(n == 4 + 4 * N_TR for n in out["leg_solves"]),
    }


def mc_values(s, out):
    return dict(out)


def eigen_values(s, out):
    """Eigenvalues as Rayleigh quotients <zeta, H zeta> of the probes.

    A probe is sqrt(C) v for an M-orthonormal eigenvector v of
    sqrt(C) H sqrt(C), so its quotient is the eigenvalue it stands for.
    """
    if s.surrogate is None:
        s.surrogate = s.problem.surrogate(s.z0)
    space = s.problem.space
    lam = [space.inner(p, s.surrogate.hess_action(p)) for p in out["probes"]]
    return {"eigenvalues": lam}


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable          # (Setup, seed) -> outputs
    values: Callable       # (Setup, outputs) -> checked values
    tolerances: dict       # value -> "exact" | ("rtol", x) | ("atol", x) | ("scaled", x)
    params: dict           # sizes recorded with every result
    pool_size: int
    nominal_op_s: float    # one operation on a 2-core x86-64 virtual machine


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="optimize-randomized",
            run=run_optimize,
            values=optimize_values,
            tolerances={
                "z": ("atol", 1e-6), "J": ("rtol", 1e-8),
                "iterations": "exact", "value_calls": "exact",
                "solves": "exact", "identity_holds": "exact",
            },
            params={"n_tr": N_TR, "beta_schedule": OPT_SCHEDULE,
                    "max_iter": OPT_ITER_CAP},
            pool_size=16,
            nominal_op_s=1.1,
        ),
        Workload(
            name="mc-risk",
            run=run_mc,
            values=mc_values,
            tolerances={
                "mean": ("rtol", 1e-9), "variance": ("rtol", 1e-9),
                "quad_mean": ("rtol", 1e-9),
            },
            params={"draws_per_op": MC_DRAWS, "with_surrogates": True},
            pool_size=64,
            nominal_op_s=0.55,
        ),
        Workload(
            name="eigenbasis-setup",
            run=run_eigen,
            values=eigen_values,
            tolerances={"eigenvalues": ("scaled", 1e-6)},
            params={"n_tr": EIG_N_TR, "trace_mode": "eigenbasis"},
            pool_size=24,
            nominal_op_s=1.5,
        ),
    )
}


def mismatches(values, ref, tolerances):
    """Names of checked values outside their tolerance of the reference."""
    bad = []
    for key, tol in tolerances.items():
        got = np.asarray(values[key], dtype=float)
        want = np.asarray(ref[key], dtype=float)
        if got.shape != want.shape:
            bad.append(key)
            continue
        if tol == "exact":
            ok = np.array_equal(got, want)
        else:
            kind, x = tol
            if kind == "rtol":
                limit = x * np.abs(want)
            elif kind == "atol":
                limit = x
            else:  # scaled: relative to the largest reference magnitude
                limit = x * np.max(np.abs(want))
            ok = bool(np.all(np.abs(got - want) <= limit))
        if not ok:
            bad.append(key)
    return bad


def pool_order(workload, seed):
    """The order in which a run with this seed visits the input pool."""
    return [int(i) for i in np.random.default_rng(seed).permutation(workload.pool_size)]


def same_outputs(a, b):
    """Bitwise equality of two operations' outputs."""
    return a.keys() == b.keys() and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a
    )
