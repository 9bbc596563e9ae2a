"""Spans and counts at the boundaries of the riskquad modules.

The tracer patches public functions and methods of the library from the
outside while it is installed and restores the originals afterwards.
Module-level functions that other modules import by name (for example
``weighted_stiffness_apply`` in ``ouu`` and ``poisson``) are patched in
every ``riskquad`` module that holds them, so calls through any binding
are seen.  Spans are kept in memory as ``[name, parent, op, start, end]``
rows; a span's self time is its duration minus that of its direct
children.  Linear solves are also sorted into a ledger by the solver
instance that served them (anchor, covariance, mass projection, or
per-draw).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from riskquad import fem, ouu, poisson, random_field, surrogate

# Span name -> (owner, attribute).  Methods are patched on their class.
METHODS = {
    "fem.factorize": (fem.SpdSolver, "__init__"),
    "fem.solve": (fem.SpdSolver, "solve"),
    "fem.solve_many": (fem.SpdSolver, "solve_many"),
    "random_field.sample_batch": (random_field.GaussianField, "sample_batch"),
    "random_field.apply_sqrt_C": (random_field.GaussianField, "apply_sqrt_C"),
    "random_field.eigenpairs": (
        random_field.GaussianField, "preconditioned_eigenpairs"),
    "random_field.orthonormalize": (random_field.FieldSpace, "orthonormalize"),
    "poisson.hess_action": (poisson.PoissonFlowProblem, "hess_action"),
    "poisson.objective": (poisson.PoissonFlowProblem, "objective"),
    "surrogate.eval_quad": (surrogate.QuadraticSurrogate, "eval_quad"),
    "ouu.evaluate": (ouu.RiskAverseObjective, "evaluate"),
    "ouu.gradient": (ouu.RiskAverseObjective, "gradient"),
}

# Functions defined in the named module and bound by name elsewhere.
FUNCTIONS = {
    "fem.assemble": ("riskquad.fem", ["assemble_weighted_stiffness"]),
    "fem.kernel": ("riskquad.fem", ["weighted_stiffness_apply", "grad_dot_load"]),
    "optim": ("riskquad.optim", ["minimize_box_lbfgs"]),
}

LEDGER_KINDS = ("anchor", "covariance", "projection", "per_draw")


def library_modules():
    """The loaded ``riskquad`` modules, by name."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "riskquad" or name.startswith("riskquad.")}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = "setup"
        self.identity_violations = 0
        self._stack = []
        self._child_s = []
        self._rhs_by_solver = defaultdict(int)
        self._kinds = {}
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _call(self, name, body, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        row = [name, parent, self.op, time.perf_counter(), None]
        self.spans.append(row)
        self._stack.append(index)
        self._child_s.append(0.0)
        try:
            return body(*args, **kwargs)
        finally:
            row[4] = time.perf_counter()
            self._stack.pop()
            child = self._child_s.pop()
            duration = row[4] - row[3]
            if self._child_s:
                self._child_s[-1] += duration
            self.counts[name + ".calls"] += 1
            self.counts[name + ".s"] += duration
            self.counts[name + ".self_s"] += duration - child

    # -- per-boundary hooks ------------------------------------------------

    def _solve(self, fn, solver, *args, **kwargs):
        self._rhs_by_solver[id(solver)] += 1
        return fn(solver, *args, **kwargs)

    def _solve_many(self, fn, solver, loads, *args, **kwargs):
        cols = np.shape(loads)[1]
        self.counts["fem.solve_many.cols"] += cols
        self._rhs_by_solver[id(solver)] += cols
        return fn(solver, loads, *args, **kwargs)

    def _counted_pde_solves(self, fn, obj, *args, **kwargs):
        counter = obj.problem.counter
        start = counter.count
        out = fn(obj, *args, **kwargs)
        spent = counter.count - start
        self.counts["ouu.pde_solves"] += spent
        # The paper's cost model: 2 + 2*n_tr counted solves for the
        # objective and as many again for the gradient.
        if spent != 2 + 2 * obj.cfg.n_tr:
            self.identity_violations += 1
        return out

    def _eigenpairs(self, fn, field, hess_action, *args, **kwargs):
        def counted(v):
            self.counts["random_field.eigenpairs.hess_actions"] += 1
            return hess_action(v)
        return fn(field, counted, *args, **kwargs)

    def _box_lbfgs(self, fn, value_fn, *args, **kwargs):
        def counted(z):
            self.counts["optim.value_calls"] += 1
            return value_fn(z)
        res = fn(counted, *args, **kwargs)
        self.counts["optim.iterations"] += len(res.rows) - 1
        return res

    HOOKS = {
        "fem.solve": "_solve",
        "fem.solve_many": "_solve_many",
        "ouu.evaluate": "_counted_pde_solves",
        "ouu.gradient": "_counted_pde_solves",
        "random_field.eigenpairs": "_eigenpairs",
        "optim": "_box_lbfgs",
    }

    def _wrapper(self, name, fn):
        hook = getattr(self, self.HOOKS[name]) if name in self.HOOKS else None
        body = fn if hook is None else functools.partial(hook, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, body, args, kwargs)
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Patch the library for the duration of the block, then restore it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for name, (owner, attr) in METHODS.items():
                self._patch(owner, attr, self._wrapper(name, owner.__dict__[attr]))
            modules = library_modules()
            for name, (home, attrs) in FUNCTIONS.items():
                for attr in attrs:
                    original = getattr(modules[home], attr)
                    traced = self._wrapper(name, original)
                    for mod in modules.values():
                        if mod.__dict__.get(attr) is original:
                            self._patch(mod, attr, traced)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def register(self, problem, gf):
        """Name the long-lived solvers so the ledger can sort solves by kind."""
        self._kinds = {
            id(problem.anchor_solver): "anchor",
            id(gf.solver_A): "covariance",
            id(problem.space._projector): "projection",
        }

    # -- results -----------------------------------------------------------

    def ledger(self):
        """Right-hand sides solved, by solver kind; a block of k counts k."""
        out = dict.fromkeys(LEDGER_KINDS, 0)
        for key, n in self._rhs_by_solver.items():
            out[self._kinds.get(key, "per_draw")] += n
        return out

    def metrics(self):
        """Per-layer totals over everything recorded while installed."""
        c = self.counts
        ledger = self.ledger()
        out = {}
        for layer in ("fem.assemble", "fem.factorize", "fem.solve",
                      "fem.kernel", "fem.solve_many", "poisson.hess_action",
                      "poisson.objective", "surrogate.eval_quad",
                      "ouu.evaluate", "ouu.gradient"):
            out[layer + ".calls"] = c[layer + ".calls"]
            out[layer + ".s"] = float(c[layer + ".s"])
        for name in ("ouu.evaluate.self_s", "ouu.gradient.self_s",
                     "optim.self_s", "random_field.sample_batch.s",
                     "random_field.apply_sqrt_C.s", "random_field.eigenpairs.s",
                     "random_field.orthonormalize.s"):
            out[name] = float(c[name])
        for name in ("fem.solve_many.cols", "random_field.eigenpairs.hess_actions",
                     "ouu.pde_solves", "optim.iterations", "optim.value_calls"):
            out[name] = c[name]
        out["random_field.cov_solves"] = ledger["covariance"]
        out["optim.accept_ratio"] = (
            c["optim.iterations"] / c["optim.value_calls"]
            if c["optim.value_calls"] else 0.0
        )
        for kind in LEDGER_KINDS:
            out[f"ledger.{kind}"] = ledger[kind]
        return out
