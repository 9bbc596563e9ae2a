import json
from collections import Counter

import numpy as np
import pytest

from riskquad.cli import main
from riskquad.config import (
    PROFILES,
    RunConfig,
    WellSpec,
    build_wells,
    config_from_dict,
    config_to_dict,
    resolve_config,
)
from riskquad.errors import ConfigError
from riskquad.poisson import default_wells

TINY = {
    "mesh": {"nx": 8, "ny": 4},
    "wells": {"sigma": 0.15},
    "ouu": {"n_tr": 2, "max_iter": 8, "beta_schedule": [0.0, 1.0]},
    "experiment": {
        "rate_n_mc": 15,
        "eps_list": [1.0, 0.5, 0.25],
        "true_risk_samples": 25,
        "n_samples": 3,
        "compare_betas": [0.5],
        "compare_n_tr": [2],
        "compare_n_mc": [3],
        "compare_eval_samples": 30,
        "compare_max_iter": 5,
    },
}


def write_config(tmp_path, data=TINY, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines[1:] if l.startswith("#")]
    return header, rows, footer


def test_config_round_trip():
    cfg = resolve_config("paper_section6")
    assert config_from_dict(config_to_dict(cfg)) == cfg
    as_dict = config_to_dict(cfg)
    assert config_to_dict(config_from_dict(as_dict)) == as_dict


def test_canonical_profile_defaults():
    cfg = resolve_config("paper_section6")
    assert (cfg.mesh.nx, cfg.mesh.ny) == (79, 39)
    assert cfg.random_field.kappa == pytest.approx(2e-2)
    assert cfg.random_field.alpha == pytest.approx(4.0)
    assert cfg.ouu.gamma == pytest.approx(1e-5)
    assert cfg.ouu.n_tr == 40
    assert (cfg.ouu.z_min, cfg.ouu.z_max) == (0.0, 16.0)
    assert cfg.ouu.z0 == 4.0
    assert list(cfg.ouu.beta_schedule) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"mesh": {"nx": 4, "resolution": 9}})
    with pytest.raises(ConfigError):
        config_from_dict({"grid": {}})


def test_unknown_config_key_exits_2(tmp_path):
    path = write_config(tmp_path, {"mesh": {"nx": 4, "bogus": 1}})
    assert main(["--config", path, "--out", str(tmp_path), "sample-field"]) == 2


def test_invalid_ouu_section_exits_2(tmp_path, capsys):
    # the default beta schedule ends at 1.0, so beta = 0.5 contradicts it
    for ouu in ({"beta": 0.5}, {"beta": "high"}):
        path = write_config(tmp_path, dict(TINY, ouu=ouu))
        assert main(["--config", path, "--out", str(tmp_path), "optimize"]) == 2
        assert "config error: ouu:" in capsys.readouterr().err


def test_threads_key_exits_2(tmp_path):
    path = write_config(tmp_path, dict(TINY, threads=2))
    assert main(["--config", path, "--out", str(tmp_path), "sample-field"]) == 2


def test_invalid_ouu_section_exits_2_for_every_command(tmp_path, capsys):
    path = write_config(tmp_path, dict(TINY, ouu={"beta": 0.5}))
    assert main(["--config", path, "--out", str(tmp_path), "sample-field"]) == 2
    assert "config error: ouu:" in capsys.readouterr().err


def test_root_seed_is_the_only_seed():
    cfg = resolve_config(overrides={"seed": 9})
    assert cfg.ouu.seed == 9
    assert "seed" not in config_to_dict(cfg)["ouu"]
    with pytest.raises(ConfigError):
        config_from_dict({"ouu": {"seed": 3}})


def test_unresolved_mesh_exits_2(tmp_path, capsys):
    # the canonical wells' mollifiers miss every node of a 4x2 mesh
    path = write_config(tmp_path, {"mesh": {"nx": 4, "ny": 2}})
    assert main(["--config", path, "--out", str(tmp_path), "optimize"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "unresolved on this mesh" in err


@pytest.mark.parametrize("command,section", [
    ("sample-field", {"mesh": {"nx": 0}}),
    ("optimize", {"wells": {"targets": [1.0, 2.0]}}),
    ("optimize", {"wells": {"sigma": -0.1}}),
    ("optimize", {"wells": {"control_xs": [3.0]}}),
    ("sample-field", {"random_field": {"mean": {
        "type": "bumps", "centers": [1.0], "amplitudes": [0.5]}}}),
    ("optimize", {"experiment": {"problem": "bogus"}}),
    ("sample-field", {"mesh": {"nx": 20.5}}),
    ("sample-field", {"mesh": {"ny": True}}),
    ("optimize", {"ouu": {"n_tr": 2.5}}),
    ("optimize", {"ouu": {"max_iter": 8.0}}),
    ("sample-field", {"seed": 2.5}),
    ("sample-field", {"mesh": {"lx": "2"}}),
    ("sample-field", {"mesh": {"ly": True}}),
    ("optimize", {"ouu": {"max_iter": 0}}),
    ("optimize", {"ouu": {"max_iter": -3}}),
])
def test_invalid_section_exits_2(tmp_path, capsys, command, section):
    path = write_config(tmp_path, section)
    args = ["--profile", "desk", "--config", path, "--out", str(tmp_path)]
    assert main(args + [command]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample-field", "optimize"])
@pytest.mark.parametrize("key,value", [
    ("lx", "2"), ("ly", True), ("lx", 0.0), ("ly", -1.0), ("lx", float("nan")),
    ("ly", float("inf")), ("lx", None),
])
def test_bad_mesh_extent_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, command, key, value
):
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    args = ["--profile", "desk", "--config",
            write_config(tmp_path, {"mesh": {key: value}}), "--out", str(out)]
    assert main(args + [command]) == 2
    assert f"config error: mesh: {key}: " in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["optimize", "compare-mc", "truncation-study"])
@pytest.mark.parametrize("wells,message", [
    ({"control_xs": [3.0]}, "strictly inside the domain"),
    ({"sigma": 0.01}, "unresolved on this mesh"),
], ids=["well outside the domain", "mollifier on no node"])
def test_build_time_config_error_exits_2_before_any_output(
    tmp_path, monkeypatch, capsys, command, wells, message
):
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    args = ["--profile", "desk", "--config",
            write_config(tmp_path, {"wells": wells}), "--out", str(out)]
    assert main(args + [command]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command,section,key", [
    ("sample-field", "experiment", "sample_eps"),
    ("optimize", "random_field", "kappa"),
    ("optimize", "ouu", "gamma"),
    ("optimize", "ouu", "z0"),
])
def test_non_finite_config_number_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, command, section, key, value
):
    # json writes these as NaN and Infinity, which json.load accepts
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    path = write_config(tmp_path, {section: {key: value}})
    args = ["--profile", "desk", "--config", path, "--out", str(out)]
    assert main(args + [command]) == 2
    assert f"config error: {section}: {key}: " in capsys.readouterr().err
    assert calls == [] and not out.exists()


SEMILINEAR = {"experiment": {"problem": "semilinear"}}


@pytest.mark.parametrize("command,config,flags,message", [
    ("sample-field", {"random_field": {"kappa": -1}}, [],
     "random_field: kappa: -1 is not a positive number"),
    ("optimize", {"random_field": {"alpha": 0}}, [],
     "random_field: alpha: 0 is not a positive number"),
    ("truncation-study", {**SEMILINEAR, "random_field": {"kappa": -1}}, [],
     "random_field: kappa: -1 is not a positive number"),
    ("optimize", {"random_field": {"kappa": "a"}}, [],
     "random_field: kappa: 'a' is not a positive number"),
    ("optimize", {"wells": {"sigma": "a"}}, [],
     "wells: sigma: 'a' is not a positive number"),
    ("sample-field", {"random_field": {"mean": {"value": "a"}}}, [],
     "random_field: mean: value: 'a' is not a finite number"),
    ("sample-field", {"random_field": {"mean": {
        "type": "bumps", "centers": [["a", 0.5]], "amplitudes": [1.0]}}}, [],
     "random_field: mean: centers: 'a' is not a finite number"),
    ("optimize", {"random_field": {"mean": {
        "type": "bumps", "centers": [[1.0, 0.5]], "amplitudes": ["a"]}}}, [],
     "random_field: mean: amplitudes: 'a' is not a finite number"),
    ("optimize", {"seed": -1}, [], "seed: -1 is negative"),
    ("sample-field", {}, ["--seed", "-1"], "seed: -1 is negative"),
], ids=["kappa", "alpha", "semilinear-kappa", "kappa-text", "sigma-text",
        "mean-value-text", "bump-center-text", "bump-amplitude-text", "seed",
        "seed-flag"])
def test_bad_config_value_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, command, config, flags, message
):
    # each of these once ended in a traceback with exit code 1, the seed
    # after the output directory had been made
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    args = ["--profile", "desk", "--config", write_config(tmp_path, config),
            "--out", str(out), *flags]
    assert main(args + [command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["sample-field", "optimize"])
@pytest.mark.parametrize("mean,message", [
    ({"type": "bumps", "width": 0}, "width: 0 is not a positive number"),
    ({"type": "bumps", "width": -0.25}, "width: -0.25 is not a positive number"),
    ({"width": 0.0}, "width: 0.0 is not a positive number"),
    ({"type": "ridge"}, "type: unknown mean type 'ridge'"),
])
def test_bad_mean_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, command, mean, message
):
    # a zero bump width once wrote NaN samples and failed optimize with a
    # traceback; a negative one was used as its absolute value
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    path = write_config(tmp_path, {"random_field": {"mean": mean}})
    args = ["--profile", "desk", "--config", path, "--out", str(out)]
    assert main(args + [command]) == 2
    assert (f"config error: random_field: mean: {message}"
            in capsys.readouterr().err)
    assert calls == [] and not out.exists()


def test_non_finite_list_entry_is_a_config_error():
    with pytest.raises(ConfigError, match="ouu: beta_schedule: "):
        config_from_dict({"ouu": {"beta_schedule": [0.0, float("nan")]}})


@pytest.mark.parametrize("max_iter", [0, -1])
def test_ouu_max_iter_below_one_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, max_iter
):
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    data = json.loads(json.dumps(TINY))
    data["ouu"]["max_iter"] = max_iter
    assert main(["--config", write_config(tmp_path, data), "--out", str(out),
                 "optimize"]) == 2
    err = capsys.readouterr().err
    assert f"config error: ouu: max_iter: {max_iter} is below 1" in err
    assert calls == [] and not out.exists()


def count_factorizations(monkeypatch):
    """Count ``solver_for`` calls, one per factorized field draw."""
    from riskquad.poisson import PoissonFlowProblem

    calls = []
    solver_for = PoissonFlowProblem.solver_for

    def counted(self, m):
        calls.append(1)
        return solver_for(self, m)

    monkeypatch.setattr(PoissonFlowProblem, "solver_for", counted)
    return calls


def test_unknown_compare_method_exits_2_before_any_optimization(
    tmp_path, monkeypatch
):
    calls = count_factorizations(monkeypatch)
    data = json.loads(json.dumps(TINY))
    data["experiment"]["compare_methods"] = ["saa", "bogus"]
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, data), "--out", str(out)]
    assert main(args + ["compare-mc"]) == 2
    assert not (out / "compare_mc.csv").exists()
    assert calls == []  # no SAA draw was factorized


BAD_EXPERIMENT_SIZES = [
    ("truncation-study", "rate_n_mc", 0),
    ("sample-field", "n_samples", -1),
    ("optimize", "true_risk_samples", 0),
    ("compare-mc", "compare_eval_samples", 0),
    ("compare-mc", "compare_n_mc", [1]),
    ("sample-field", "sample_eps", -1.0),
    ("truncation-study", "eps_list", [1.0, 0.0]),
    ("truncation-study", "eps_list", [0.5]),
    ("truncation-study", "eps_list", []),
    ("truncation-study", "eps_list", [0.5, 0.5]),
    ("truncation-study", "semilinear_c", -1.0),
    ("compare-mc", "compare_betas", [0.5, -0.1]),
    ("compare-mc", "compare_n_tr", [-1]),
    ("compare-mc", "compare_n_tr", [2, 46]),  # eigenbasis above 9 x 5 nodes
    ("truncation-study", "rate_n_mc", 15.5),
    ("sample-field", "n_samples", 3.0),
    ("optimize", "true_risk_samples", True),
    ("compare-mc", "compare_eval_samples", 30.5),
    ("compare-mc", "compare_max_iter", 5.5),
    ("compare-mc", "compare_n_tr", [2.5]),
    ("compare-mc", "compare_n_tr", [2, True]),
    ("compare-mc", "compare_n_mc", [3.0]),
    ("compare-mc", "compare_max_iter", 0),
    ("compare-mc", "compare_max_iter", -2),
]


def case_ids(cases):
    """Each case's key, numbered from the key's second case on."""
    seen = Counter()
    ids = []
    for _, key, _ in cases:
        ids.append(f"{key}-{seen[key]}" if seen[key] else key)
        seen[key] += 1
    return ids


@pytest.mark.parametrize("command,key,value", BAD_EXPERIMENT_SIZES,
                         ids=case_ids(BAD_EXPERIMENT_SIZES))
def test_bad_experiment_size_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, command, key, value
):
    calls = count_factorizations(monkeypatch)
    data = json.loads(json.dumps(TINY))
    data["experiment"][key] = value
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, data), "--out", str(out)]
    assert main(args + [command]) == 2
    assert f"config error: experiment: {key}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_empty_control_box_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    calls = count_factorizations(monkeypatch)
    data = json.loads(json.dumps(TINY))
    data["ouu"].update(z_min=5.0, z_max=1.0)
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, data), "--out", str(out)]
    assert main(args + ["optimize"]) == 2
    assert "config error: ouu: z_min must be below z_max" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("ouu,message", [
    pytest.param({"beta_schedule": [-5.0, 1.0], "max_iter": 5},
                 "beta_schedule: -5.0 is not a nonnegative number",
                 id="ouu0-beta schedule entries must be nonnegative"),
    ({"z0": 20}, "z0 must lie in [z_min, z_max]"),
    ({"z0": -1.0}, "z0 must lie in [z_min, z_max]"),
])
def test_ouu_outside_its_domain_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, ouu, message
):
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "out"
    args = ["--profile", "desk", "--config",
            write_config(tmp_path, {"ouu": ouu}), "--out", str(out)]
    assert main(args + ["optimize"]) == 2
    assert f"config error: ouu: {message}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_eigenbasis_n_tr_above_field_dimension_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys
):
    calls = count_factorizations(monkeypatch)
    data = json.loads(json.dumps(TINY))
    data["ouu"].update(trace_mode="eigenbasis", n_tr=46)  # 9 x 5 mesh nodes
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, data), "--out", str(out)]
    assert main(args + ["optimize"]) == 2
    assert "config error: ouu: n_tr" in capsys.readouterr().err
    assert calls == [] and not out.exists()
    data["ouu"]["n_tr"] = 45  # a complete eigenbasis
    args = ["--config", write_config(tmp_path, data), "--out", str(out)]
    assert main(args + ["optimize"]) == 0


def test_optimize_factorizes_each_evaluation_draw_once(tmp_path, monkeypatch):
    calls = count_factorizations(monkeypatch)
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path), "optimize"]) == 0
    # both controls are scored on the same draws
    assert len(calls) == TINY["experiment"]["true_risk_samples"]


def test_compare_mc_factorizes_each_evaluation_draw_once(tmp_path, monkeypatch):
    data = json.loads(json.dumps(TINY))
    data["experiment"]["compare_betas"] = [0.5, 0.1]
    calls = count_factorizations(monkeypatch)
    cfg = write_config(tmp_path, data)
    assert main(["--config", cfg, "--out", str(tmp_path), "compare-mc"]) == 0
    exp = data["experiment"]
    # the SAA draws of each sample size, shared by every beta, then every
    # control on one shared sample
    saa_draws = sum(exp["compare_n_mc"])
    assert len(calls) == saa_draws + exp["compare_eval_samples"]


INF = float("inf")
# an out-of-range value of every numeric or list key, by section
OUT_OF_RANGE = {
    "mesh": {"nx": 0, "ny": 0, "lx": 0.0, "ly": -1.0},
    "random_field": {"kappa": -1, "alpha": 0},
    "random_field: mean": {"value": INF, "centers": [[1.0]], "amplitudes": [INF],
                           "width": 0},
    "wells": {"sigma": 0, "control_xs": [], "control_ys": [], "production_xs": [],
              "production_ys": [], "targets": [1, 2]},
    "ouu": {"beta": -1, "gamma": 0, "n_tr": -1, "beta_schedule": [1.0, 0.5],
            "grad_reduction_tol": -1, "max_iter": 0, "z0": INF, "z_min": INF,
            "z_max": -INF},
    "experiment": {"semilinear_c": -1, "eps_list": [0.5, 0.5], "rate_n_mc": 0,
                   "n_samples": 0, "sample_eps": -1, "true_risk_samples": 0,
                   "compare_betas": [-0.1], "compare_n_tr": [-1],
                   "compare_n_mc": [1], "compare_eval_samples": 0,
                   "compare_max_iter": 0},
    "": {"seed": -1},
}
CHOICES = {"random_field: mean": "type", "ouu": "trace_mode",
           "experiment": "problem"}
BAD_KEYS = [
    *[(section, key, value) for section, keys in OUT_OF_RANGE.items()
      for key, bad in keys.items() for value in ("a", True, bad)],
    *[(section, key, value) for section, key in CHOICES.items()
      for value in ("a", True)],
    ("ouu", "grad_reduction_tol", 0), ("ouu", "grad_reduction_tol", 1),
    ("ouu", "beta_schedule", "abc"), ("wells", "targets", "flat"),
    ("experiment", "compare_betas", ["a"]), ("experiment", "eps_list", [1, "b"]),
    ("experiment", "compare_n_tr", 3), ("experiment", "compare_methods", ["bogus"]),
    ("experiment", "compare_methods", "saa"),
]


@pytest.mark.parametrize(
    "section,key,value", BAD_KEYS,
    ids=[f"{section or 'root'}.{key}={json.dumps(value)}"
         for section, key, value in BAD_KEYS])
def test_every_config_key_is_checked_when_read(
    tmp_path, monkeypatch, capsys, section, key, value
):
    calls = count_factorizations(monkeypatch)
    data = {key: value}
    for name in reversed(section.split(": ") if section else []):
        data = {name: data}
    out = tmp_path / "out"
    args = ["--profile", "desk", "--config", write_config(tmp_path, data),
            "--out", str(out)]
    assert main(args + ["optimize"]) == 2
    message = f"{section}: {key}: " if section else f"{key}: "
    assert f"config error: {message}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        resolve_config("nope")


def test_truncation_study_output(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "truncation-study"]) == 0
    header, rows, footer = read_csv(out / "truncation_rates.csv")
    assert header == ["eps", "err_lin", "err_quad"]
    assert len(rows) == 3
    assert any("slope_lin" in line for line in footer)
    assert any("slope_quad" in line for line in footer)


def test_truncation_study_single_sample(tmp_path):
    data = json.loads(json.dumps(TINY))
    data["experiment"]["rate_n_mc"] = 1
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "truncation-study"]) == 0
    _, rows, _ = read_csv(out / "truncation_rates.csv")
    assert len(rows) == 3


def test_truncation_study_semilinear_exact(tmp_path):
    data = json.loads(json.dumps(TINY))
    del data["wells"]  # the semilinear problem has no wells
    data["experiment"]["problem"] = "semilinear"
    data["experiment"]["semilinear_c"] = 0.0
    data["experiment"]["rate_n_mc"] = 10
    data["random_field"] = {"kappa": 5e-2, "alpha": 2.0}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "truncation-study"]) == 0
    _, rows, _ = read_csv(out / "truncation_rates.csv")
    err_quad = [float(r[2]) for r in rows]
    assert all(e < 1e-8 for e in err_quad)


SEMILINEAR_UNREAD = {
    "mesh.lx": {"lx": 1.0},
    "mesh.ly": {"ly": 2.0},
    "random_field.mean": {"mean": {"value": 0.5}},
    "wells": {"sigma": 0.2},
}


@pytest.mark.parametrize("key", SEMILINEAR_UNREAD)
def test_semilinear_truncation_study_rejects_unread_settings(tmp_path, capsys, key):
    data = json.loads(json.dumps(TINY))
    del data["wells"]
    data["experiment"]["problem"] = "semilinear"
    data.setdefault(key.split(".")[0], {}).update(SEMILINEAR_UNREAD[key])
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, data), "--out", str(out)]
    assert main(args + ["truncation-study"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_semilinear_truncation_study_accepts_profile_settings(tmp_path):
    # the desk profile sets wells.sigma; only settings a run adds are rejected
    data = {"experiment": {"problem": "semilinear", "rate_n_mc": 3,
                           "eps_list": [1.0, 0.5]}}
    args = ["--profile", "desk", "--config", write_config(tmp_path, data),
            "--out", str(tmp_path / "out")]
    assert main(args + ["truncation-study"]) == 0


def test_sample_field_reproducible_and_mean_at_zero_eps(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "--seed", "3",
                 "sample-field"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seed", "3",
                 "sample-field"]) == 0
    assert (out1 / "field_samples.csv").read_bytes() == (
        out2 / "field_samples.csv"
    ).read_bytes()
    header, rows, _ = read_csv(out1 / "field_samples.csv")
    assert header == ["x", "y", "sample_0", "sample_1", "sample_2"]

    data = json.loads(json.dumps(TINY))
    data["experiment"]["sample_eps"] = 0.0
    cfg0 = write_config(tmp_path, data, "zero.json")
    out3 = tmp_path / "c"
    assert main(["--config", cfg0, "--out", str(out3), "sample-field"]) == 0
    _, rows, _ = read_csv(out3 / "field_samples.csv")
    for row in rows:
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0


def test_sample_statistics_match_covariance_diagonal(tmp_path):
    # nodal variance of many draws agrees with the dense covariance diagonal
    from riskquad.fem import build_mesh
    from riskquad.random_field import GaussianField, volume_space

    mesh = build_mesh(3, 2, 2.0, 1.0)
    space = volume_space(mesh)
    gf = GaussianField(space, 2e-2, 4.0)
    draws = gf.sample_batch(10_000, seed=0) - gf.mean[:, None]
    A = (gf.kappa * space.natural_stiffness + gf.alpha * space.mass).toarray()
    Ainv = np.linalg.inv(A)
    diag = np.diag(Ainv @ space.mass.toarray() @ Ainv)
    emp = draws.var(axis=1, ddof=1)
    se = diag * np.sqrt(2.0 / (draws.shape[1] - 1))
    assert np.all(np.abs(emp - diag) <= 5.0 * se)


def test_optimize_outputs_and_descent(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "optimize"]) == 0
    for name in (
        "iterates.csv", "optimal_control.csv", "risk_report.txt",
        "true_risk_initial.csv", "true_risk_optimal.csv",
    ):
        assert (out / name).exists()
    header, rows, _ = read_csv(out / "iterates.csv")
    assert header == [
        "beta", "iter", "J", "grad_norm", "pde_solves_cumulative",
        "active_bounds_count",
    ]
    by_beta = {}
    for row in rows:
        by_beta.setdefault(row[0], []).append(float(row[2]))
    for values in by_beta.values():
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    header, rows, _ = read_csv(out / "true_risk_initial.csv")
    assert header == ["theta", "theta_lin", "theta_quad"]
    assert len(rows) == TINY["experiment"]["true_risk_samples"]


def test_optimize_deterministic_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfg, "--out", str(out1), "optimize"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "optimize"]) == 0
    for name in ("iterates.csv", "optimal_control.csv", "true_risk_optimal.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_mc_structure(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "compare-mc"]) == 0
    header, rows, _ = read_csv(out / "compare_mc.csv")
    assert header == [
        "method", "beta", "work_level", "pde_solves_per_eval",
        "true_objective", "mc_standard_error",
    ]
    methods = [r[0] for r in rows]
    assert methods == ["quad_randomized", "quad_eigenbasis", "saa"]
    assert [r[3] for r in rows] == ["12", "12", "6"]


def test_compare_mc_deterministic_output(tmp_path):
    data = json.loads(json.dumps(TINY))
    data["experiment"]["compare_betas"] = [0.5, 0.1]
    cfg = write_config(tmp_path, data)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfg, "--out", str(out1), "compare-mc"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "compare-mc"]) == 0
    first = (out1 / "compare_mc.csv").read_bytes()
    assert first == (out2 / "compare_mc.csv").read_bytes()
    assert len(first.decode().strip().splitlines()) == 1 + 2 * 3


def test_compare_mc_single_method_single_level(tmp_path):
    data = json.loads(json.dumps(TINY))
    data["experiment"]["compare_methods"] = ["quad_randomized"]
    data["experiment"]["compare_n_tr"] = [2]
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "compare-mc"]) == 0
    _, rows, _ = read_csv(out / "compare_mc.csv")
    assert len(rows) == 1


def test_check_derivatives_passes(tmp_path):
    assert main(["--out", str(tmp_path), "check-derivatives"]) == 0


def test_outdir_env_var(tmp_path, monkeypatch):
    from riskquad.cli import OUTDIR_ENV

    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "sample-field"]) == 0
    assert (tmp_path / "envout" / "field_samples.csv").exists()


def test_profiles_cover_known_names():
    assert set(PROFILES) == {"paper_section6", "desk"}
    assert isinstance(resolve_config("desk"), RunConfig)


def test_config_wells_default_to_the_canonical_layout():
    canonical, built = default_wells(), build_wells(WellSpec())
    for name in ("control_points", "production_points", "targets"):
        assert np.array_equal(getattr(canonical, name), getattr(built, name))
    assert canonical.sigma == built.sigma
