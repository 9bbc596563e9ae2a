"""The benchmark's contract with the library, checked without timing.

``bench/`` patches library methods by name and calls library functions
with fixed keywords; these tests run its tracer and one operation of each
workload against ``bench/references.json`` so that a renamed or removed
name fails here first.  Nothing under ``bench/`` is written.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOAD_NAMES = ["optimize-randomized", "mc-risk", "eigenbasis-setup"]


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = bytecode
    return tracer, workloads


@pytest.fixture(scope="module")
def built(bench_modules):
    _, workloads = bench_modules
    return workloads.build()


def test_tracer_installs_and_uninstalls(bench_modules):
    tracer, _ = bench_modules
    originals = {name: owner.__dict__[attr]
                 for name, (owner, attr) in tracer.METHODS.items()}
    with tracer.Tracer().installed():
        pass
    for name, (owner, attr) in tracer.METHODS.items():
        assert owner.__dict__[attr] is originals[name]


def test_every_workload_is_checked(bench_modules):
    _, workloads = bench_modules
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_matches_reference_on_input_0(bench_modules, built, name):
    _, workloads = bench_modules
    workload = workloads.WORKLOADS[name]
    refs = json.loads((BENCH / "references.json").read_text())[name]
    values = workload.values(built, workload.run(built, 0))
    assert workloads.mismatches(values, refs["0"], workload.tolerances) == []


def test_ledger_sees_probe_draws_but_no_objective_covariance_solve(
        bench_modules, built):
    # building the randomized objective at n_tr = 40 colors its 40 probe
    # draws by solves with A; one canonical objective-plus-gradient then
    # spends 4 + 4*n_tr anchor solves and no covariance solve, since
    # apply_C_to_loads is a diagonal in the field's basis; a surrogate keeps
    # its gradient as a load, so building one makes no mass projection
    tracer, _ = bench_modules
    from riskquad.ouu import RiskAverseObjective

    cfg = dataclasses.replace(built.ouu, n_tr=40)
    traced = tracer.Tracer()
    traced.register(built.problem, built.gf)
    with traced.installed():
        objective = RiskAverseObjective(built.problem, built.gf, cfg)
        assert traced.ledger()["covariance"] == 40
        objective.gradient(objective.evaluate(built.z0)[1])
        assert traced.ledger()["anchor"] == 164
        assert traced.ledger()["covariance"] == 40
        built.problem.surrogate(built.z0)
    assert traced.ledger()["projection"] == 0


def test_eigenbasis_setup_spends_no_covariance_or_mass_solves(bench_modules, built):
    # the eigensolve runs in the field's basis, where sqrt(C) is a diagonal:
    # 44 Hessian loads of two anchor solves each and the two workspace
    # solves; the surrogate's gradient is a load, so no mass projection
    tracer, workloads = bench_modules
    traced = tracer.Tracer()
    traced.register(built.problem, built.gf)
    with traced.installed():
        workloads.WORKLOADS["eigenbasis-setup"].run(built, 0)
    ledger = traced.ledger()
    assert (ledger["covariance"], ledger["projection"], ledger["anchor"]) == (0, 0, 90)
