"""Benchmark of the riskquad library on its canonical study configuration.

Run from the repository root:

    python3 bench/run.py --workload mc-risk --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory and driven
from one process with single-threaded BLAS.  With ``--trace 0`` the run
times set-up and repeated operations and prints the end-to-end metrics;
with ``--trace 1`` it patches the library's module boundaries (see
``tracer.py``) and prints the per-layer metrics.  Every operation's
outputs are checked against ``references.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.
See ``README.md`` for the metrics and workloads.
"""

import os
import sys

# One BLAS thread, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_OPS = 3


def import_library():
    """Import riskquad from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import riskquad

    if Path(riskquad.__file__).resolve().parent != src / "riskquad":
        raise ImportError(f"riskquad was imported from {riskquad.__file__}")


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args, workload, setup):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mesh = setup.problem.mesh
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "mesh": {"nx": mesh.nx, "ny": mesh.ny, "nodes": mesh.n_nodes},
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Reference:
    """Fixed numpy/scipy work, timed between operations.

    It factorizes a shifted 5-point Laplacian on the canonical 80x40 node
    grid, solves with it, and gathers and scatters over 2x2-node elements:
    the kinds of work the library does, without calling the library, so no
    change to riskquad moves it.  On a shared 2-core x86-64 virtual machine
    the speed of all code drifts by up to 40% over minutes; the time of an
    operation divided by that of the reference work on either side of it
    does not.
    """

    REPEATS = 5

    def __init__(self):
        nx, ny = 80, 40
        n = nx * ny

        def lap(m):
            return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))

        self.op = (sp.kronsum(lap(nx), lap(ny)) + 0.1 * sp.identity(n)).tocsc()
        ex, ey = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
        n00 = (ey * nx + ex).ravel()
        self.conn = np.column_stack([n00, n00 + 1, n00 + nx + 1, n00 + nx])
        self.tab = np.random.default_rng(0).standard_normal((4, 4))
        self.rhs = np.random.default_rng(1).standard_normal((n, 8))

    def seconds(self):
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(self.REPEATS):
            lu = spla.splu(self.op)
            for b in self.rhs.T:
                x = lu.solve(b)
                loc = x[self.conn] @ self.tab
                total += np.bincount(self.conn.ravel(), weights=loc.ravel(),
                                     minlength=x.size) @ x
        elapsed = time.perf_counter() - t0
        if not np.isfinite(total):
            raise ArithmeticError("reference work produced a non-finite value")
        return elapsed


class Checker:
    """Runs operations, checks their outputs, and keeps the tallies."""

    def __init__(self, workload, references):
        self.workload = workload
        self.refs = references[workload.name]
        self.attempted = 0
        self.failed = 0

    def run(self, setup, entry):
        """Time one operation; returns (seconds, outputs), outputs None on error."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run(setup, entry)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, out

    def check(self, setup, entry, out, extra_ok=True):
        """Compare with the stored reference; count a mismatch as failed."""
        from workloads import mismatches

        if out is None:  # already counted as failed by run()
            return
        w = self.workload
        bad = mismatches(w.values(setup, out), self.refs[str(entry)],
                         w.tolerances)
        if bad or not extra_ok:
            print(f"mismatch on input {entry}: {bad or 'traced run'}",
                  file=sys.stderr)
            self.failed += 1


def measure(args, workload, checker):
    """Untraced run: set-up and one operation, repeated for ``--seconds``.

    Each operation runs on a freshly built set-up, as one CLI invocation
    would, so set-up samples are spread over the run like operation
    samples.  Reference work is timed before the first operation and after
    each one.  Peak memory is read once the first operation is checked:
    later, the heap grows through fragmentation by amounts that differ
    from run to run (measured: 98 MB or 113 MB after three operations of
    one input sequence).
    """
    from workloads import build, pool_order

    order = pool_order(workload, args.seed)
    reference = Reference()
    samples = {"setup_s": [], "op_s": [], "ref_s": [reference.seconds()]}
    rss_mb = None
    start = time.perf_counter()
    while checker.attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        setup = None  # at most one set-up alive at a time
        t0 = time.perf_counter()
        setup = build()
        samples["setup_s"].append(time.perf_counter() - t0)
        entry = order[checker.attempted % len(order)]
        dt, out = checker.run(setup, entry)
        samples["op_s"].append(dt)
        samples["ref_s"].append(reference.seconds())
        checker.check(setup, entry, out)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = samples["ref_s"]
    samples["op_rel"] = [
        op / (0.5 * (before + after))
        for op, before, after in zip(samples["op_s"], ref, ref[1:])
    ]
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "op_rel": statistics.median(samples["op_rel"]),
        "peak_rss_mb": rss_mb,
    }
    return setup, metrics, samples


def measure_traced(args, workload, checker):
    """Traced run: each operation runs untraced, then traced, on one input."""
    from tracer import Tracer
    from workloads import build, pool_order, same_outputs

    tracer = Tracer()
    with tracer.installed():
        setup = build(register=tracer.register)
    order = pool_order(workload, args.seed)
    n_ops = max(2, round(args.seconds / (2 * workload.nominal_op_s)))
    plain_s, traced_s = [], []
    for i in range(n_ops):
        entry = order[i % len(order)]
        dt, plain = checker.run(setup, entry)
        checker.check(setup, entry, plain)
        plain_s.append(dt)
        tracer.op = i
        violations = tracer.identity_violations
        with tracer.installed():
            dt, traced = checker.run(setup, entry)
        traced_s.append(dt)
        checker.check(
            setup, entry, traced,
            extra_ok=(plain is not None and traced is not None
                      and same_outputs(plain, traced)
                      and tracer.identity_violations == violations),
        )
    metrics = tracer.metrics()
    metrics["op_s"] = statistics.median(plain_s)
    metrics["trace.ops"] = n_ops
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    )
    return setup, metrics, tracer


def write_trace(args, env, metrics, tracer):
    """Keep the spans of a traced run under ``.bench_out/`` in the checkout."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    t_ref = tracer.spans[0][3] if tracer.spans else 0.0
    spans = [[name, parent, op, round(t0 - t_ref, 7), round(t1 - t_ref, 7)]
             for name, parent, op, t0, t1 in tracer.spans]
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics,
                   "span_fields": ["name", "parent", "op", "start_s", "end_s"],
                   "spans": spans}, fh)


def main(argv=None):
    try:
        import_library()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        references = json.load(fh)
    workload = WORKLOADS[args.workload]

    checker = Checker(workload, references)
    run = measure_traced if args.trace else measure
    setup, values, extra = run(args, workload, checker)

    env = environment(args, workload, setup)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        write_trace(args, env, metrics, extra)

    failed_frac = checker.failed / checker.attempted
    print(f"{workload.name}: {checker.attempted} operations, "
          f"failed_frac {failed_frac:.3g}")
    if not args.trace:
        print(json.dumps({"samples": {k: sorted(v) for k, v in extra.items()}}))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
