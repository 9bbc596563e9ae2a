"""Command-line experiment drivers.

Subcommands: truncation-study, optimize, compare-mc, sample-field, and
check-derivatives.  Every command is deterministic given (config, seed);
numeric CSV output uses 17 significant digits so regression baselines
round-trip losslessly.  Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import PROFILES, build_setup, check_eigenbasis_size, resolve_config
from .errors import ConfigError, NumericalError
from .ouu import (RiskAverseObjective, SaaObjective, continuation,
                  evaluate_true_risk, optimize, truncation_rate_study)

OUTDIR_ENV = "RISKQUAD_OUTDIR"


def fmt(x):
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _write_csv(path, header, rows, footer_lines=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n"
            )
        for line in footer_lines:
            fh.write(f"# {line}\n")


def _outdir(args):
    out = args.out or os.environ.get(OUTDIR_ENV) or "riskquad-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    over = {} if args.seed is None else {"seed": args.seed}
    return resolve_config(args.profile, args.config, over)


def _flow_setup(cfg):
    """``build_setup`` for the commands that control the flow problem's wells."""
    if cfg.experiment.problem != "poisson":  # checked before any work
        raise ConfigError(f"experiment: problem: {cfg.experiment.problem!r} has "
                          "no wells to control; only truncation-study and "
                          "sample-field run it")
    return build_setup(cfg)


def cmd_truncation_study(args):
    cfg = _load(args)
    mesh, gf, problem = build_setup(cfg)
    # the configured uniform well rate, or a unit semilinear source
    z0 = (np.full(problem.n_controls, cfg.ouu.z0)
          if cfg.experiment.problem == "poisson" else np.ones(mesh.n_nodes))
    out = _outdir(args)
    study = truncation_rate_study(
        problem, gf, z0, cfg.experiment.eps_list, cfg.experiment.rate_n_mc,
        seed=cfg.seed,
    )
    path = out / "truncation_rates.csv"
    _write_csv(
        path,
        ["eps", "err_lin", "err_quad"],
        zip(study.eps, study.err_lin, study.err_quad),
        footer_lines=[
            f"slope_lin={fmt(study.slope_lin)}",
            f"slope_quad={fmt(study.slope_quad)}",
            f"n_mc={study.n_mc} seed={study.seed}",
        ],
    )
    print(f"wrote {path}")
    print(f"slope_lin={study.slope_lin:.3f} slope_quad={study.slope_quad:.3f}")
    return 0


def _write_trace(path, legs):
    rows = [
        (leg.beta, r.iteration, r.value, r.grad_norm, r.solves, r.active_bounds)
        for leg in legs for r in leg.rows
    ]
    _write_csv(
        path,
        ["beta", "iter", "J", "grad_norm", "pde_solves_cumulative",
         "active_bounds_count"],
        rows,
    )


def _report_text(report, z):
    """``J`` (the report's ``value``), then its other fields in declared order."""
    lines = ["risk-averse objective report", f"J              = {fmt(report.value)}"]
    lines += [f"{f.name:<15}= {fmt(getattr(report, f.name))}"
              for f in fields(report) if f.name != "value"]
    lines.append("control vector:")
    lines += [f"  z[{i:2d}] = {fmt(v)}" for i, v in enumerate(z)]
    return "\n".join(lines) + "\n"


def cmd_optimize(args):
    cfg = _load(args)
    mesh, gf, problem = _flow_setup(cfg)
    out = _outdir(args)
    z0 = np.full(problem.n_controls, cfg.ouu.z0)

    result = optimize(problem, gf, cfg.ouu, z0=z0)
    _write_trace(out / "iterates.csv", result.legs)
    _write_csv(
        out / "optimal_control.csv",
        ["well", "rate"],
        [(i, v) for i, v in enumerate(result.z)],
    )
    with open(out / "risk_report.txt", "w", encoding="utf-8") as fh:
        fh.write(_report_text(result.final_report, result.z))

    risk = evaluate_true_risk(
        problem, gf, np.column_stack([z0, result.z]),
        cfg.experiment.true_risk_samples, seed=cfg.seed + 2,
    )
    for k, tag in enumerate(("initial", "optimal")):
        _write_csv(
            out / f"true_risk_{tag}.csv", ["theta", "theta_lin", "theta_quad"],
            zip(risk.samples[:, k], risk.lin_samples[:, k], risk.quad_samples[:, k]),
        )
        print(
            f"{tag}: E[theta]={risk.mean[k]:.6g} "
            f"Var[theta]={risk.variance[k]:.6g}"
        )
    if result.degraded:
        print("warning: line search stalled; returned best iterate", file=sys.stderr)
    for leg in result.legs:
        if not (leg.converged or leg.degraded):
            print(f"warning: leg beta={leg.beta:g} stopped at max_iter "
                  f"{cfg.ouu.max_iter} before converging", file=sys.stderr)
    print(f"wrote results to {out}")
    return 0


def cmd_compare_mc(args):
    cfg = _load(args)
    exp = cfg.experiment
    if "quad_eigenbasis" in exp.compare_methods:
        check_eigenbasis_size(cfg.mesh, "experiment: compare_n_tr", exp.compare_n_tr)
    mesh, gf, problem = _flow_setup(cfg)
    out = _outdir(args)
    ouu = replace(cfg.ouu, max_iter=exp.compare_max_iter)
    z0 = np.full(problem.n_controls, ouu.z0)

    def objective(method, level):
        if method == "saa":
            return SaaObjective(problem, gf, level, ouu.beta, ouu.gamma, seed=ouu.seed)
        c = replace(ouu, n_tr=level, trace_mode=method.removeprefix("quad_"))
        return RiskAverseObjective(problem, gf, c, nominal_control=z0)

    # one objective per method and work level: its continuations (0, beta)
    # share their beta = 0 leg, which runs once
    schedules = [(0.0, beta) if beta > 0 else (beta,) for beta in exp.compare_betas]
    runs = [(method, level, continuation(objective(method, level), ouu, z0, schedules))
            for method in (exp.compare_methods if schedules else ())
            for level in (exp.compare_n_mc if method == "saa" else exp.compare_n_tr)]
    controls, meta = [], []
    for k, beta in enumerate(exp.compare_betas):
        for method, level, results in runs:
            controls.append(results[k].z)
            meta.append((method, beta, level, results[k].final_report.pde_solves))
    rows = []
    if controls:
        # every control on the same draws: one factorization per draw
        risk = evaluate_true_risk(
            problem, gf, np.column_stack(controls), exp.compare_eval_samples,
            seed=cfg.seed + 5, with_surrogates=False,
        )
        values, errors = risk.risk_measure([m[1] for m in meta])
        for m, z, value, se in zip(meta, controls, values, errors):
            cost = 0.5 * cfg.ouu.gamma * float(z @ z)
            rows.append((*m, value + cost, se))
    path = out / "compare_mc.csv"
    _write_csv(
        path,
        ["method", "beta", "work_level", "pde_solves_per_eval",
         "true_objective", "mc_standard_error"],
        rows,
    )
    print(f"wrote {path}")
    return 0


def cmd_sample_field(args):
    cfg = _load(args)
    mesh, gf, problem = build_setup(cfg)
    out = _outdir(args)
    n = cfg.experiment.n_samples
    draws = gf.scaled(cfg.experiment.sample_eps).sample_batch(n, seed=cfg.seed)
    draws += problem.mean[:, None]
    header = ["x", "y"] + [f"sample_{k}" for k in range(n)]
    nodes = gf.space.node_index
    rows = zip(mesh.node_x[nodes], mesh.node_y[nodes],
               *[draws[:, k] for k in range(n)])
    path = out / "field_samples.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def cmd_check_derivatives(args):
    cfg = _load(args)
    from .checks import run_derivative_checks

    results = run_derivative_checks(seed=cfg.seed)
    ok = True
    for name, err, tol in results:
        status = "PASS" if err <= tol else "FAIL"
        ok = ok and err <= tol
        print(f"[{status}] {name}: rel err {err:.3e} (tol {tol:.1e})")
    if not ok:
        raise NumericalError("a derivative check failed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="riskquad",
        description="Risk-averse well control with quadratic surrogates.",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="named base configuration (default: paper_section6)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help=f"output directory (or ${OUTDIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("truncation-study").set_defaults(fn=cmd_truncation_study)
    sub.add_parser("optimize").set_defaults(fn=cmd_optimize)
    sub.add_parser("compare-mc").set_defaults(fn=cmd_compare_mc)
    sub.add_parser("sample-field").set_defaults(fn=cmd_sample_field)
    sub.add_parser("check-derivatives").set_defaults(fn=cmd_check_derivatives)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
