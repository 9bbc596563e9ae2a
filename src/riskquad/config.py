"""Run configuration: strict schema, dict round trip, and named profiles.

The ``paper_section6`` profile reproduces the canonical study setup
(79x39 mesh of (0,2)x(0,1), kappa = 2e-2, alpha = 4, gamma = 1e-5,
n_tr = 40, bounds [0, 16], uniform initial control 4).  Unknown keys are
rejected so silently ignored typos cannot skew an experiment.

Each field of a section states its kind once (``errors.setting``), and
the section checks every key by kind and range when it is built, so a bad
value is a ``ConfigError`` reading ``<section>: <key>: ...`` before any
output exists.  Only the checks between fields are written by hand: the
beta schedule is ascending and ends at beta, z0 lies in the box, the eps
values are distinct, bump centers pair with amplitudes (a mean with no
centers is constant), there is one target per production well, and an
eigenbasis n_tr fits the mesh (``check_eigenbasis_size``); a semilinear
config may not set a mesh extent, mean, wells or z0 that its profile does
not.  The ``mesh`` section is ``fem.Mesh`` itself, and the ``wells`` section
the flow problem's ``WellConfig``.  The ``ouu`` section is the runtime
``OuuConfig`` itself; its ``seed`` is not a key of its own but the root
``seed``, which seeds the field draws and the trace probes alike.
``build_setup`` builds every run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import (COUNT, INTEGER, NATURAL, NONNEGATIVE, POSITIVE, REAL,
                     ConfigError, check_settings, choice, kind, list_of, setting)
from .fem import Mesh
from .ouu import OuuConfig
from .poisson import PoissonFlowProblem, WellConfig
from .random_field import GaussianField
from .semilinear import SemilinearProblem

REALS = list_of(REAL)
POINT = kind(lambda v: len(v) == 2, "{key}: {v!r} is not an (x, y) pair", REALS)
AT_LEAST_TWO = kind(lambda v: v >= 2, "{key}: {v!r} is below 2", INTEGER)


@dataclass
class MeanSpec:
    """Mean log-conductivity: ``value`` plus one Gaussian bump of a positive
    ``width`` per center; a mean with no centers is constant."""

    value: float = setting(REAL, 0.0)
    centers: list = setting(list_of(POINT), [])
    amplitudes: list = setting(REALS, [])
    width: float = setting(POSITIVE, 0.25)

    def __post_init__(self):
        check_settings(self)
        if len(self.centers) != len(self.amplitudes):
            raise ValueError(f"amplitudes: {len(self.amplitudes)} values for "
                             f"{len(self.centers)} centers")


@dataclass
class FieldSpec:
    kappa: float = setting(POSITIVE, 2e-2)
    alpha: float = setting(POSITIVE, 4.0)
    mean: MeanSpec = field(default_factory=MeanSpec)

    def __post_init__(self):
        check_settings(self)


COMPARE_METHODS = ("quad_randomized", "quad_eigenbasis", "saa")


@dataclass
class ExperimentSpec:
    problem: str = setting(choice("experiment problem", "poisson", "semilinear"),
                           "poisson")
    semilinear_c: float = setting(NONNEGATIVE, 1.0)
    eps_list: list = setting(list_of(POSITIVE), [2.0**-k for k in range(7)])
    rate_n_mc: int = setting(COUNT, 2000)
    n_samples: int = setting(COUNT, 3)
    sample_eps: float = setting(NONNEGATIVE, 1.0)
    true_risk_samples: int = setting(AT_LEAST_TWO, 10000)
    compare_betas: list = setting(list_of(NONNEGATIVE), [0.5, 0.1, 0.01])
    compare_n_tr: list = setting(list_of(NATURAL), [4, 16])
    compare_n_mc: list = setting(list_of(AT_LEAST_TWO), [4, 16])
    compare_eval_samples: int = setting(AT_LEAST_TWO, 2000)
    compare_max_iter: int = setting(COUNT, 40)
    compare_methods: list = setting(
        list_of(choice("compare method", *COMPARE_METHODS)), list(COMPARE_METHODS))

    def __post_init__(self):
        check_settings(self)
        if len(set(self.eps_list)) < 2:
            raise ValueError(f"eps_list: {self.eps_list!r} has fewer than two "
                             "distinct values to fit a rate")


def check_eigenbasis_size(mesh, key, n_trs):
    """An eigenbasis has at most one vector per node of ``mesh``."""
    if max(n_trs, default=0) > mesh.n_nodes:
        raise ConfigError(f"{key}: {max(n_trs)} exceeds the {mesh.n_nodes} mesh "
                          "nodes of an eigenbasis")


@dataclass
class RunConfig:
    mesh: Mesh = field(default_factory=Mesh)
    random_field: FieldSpec = field(default_factory=FieldSpec)
    wells: WellConfig = field(default_factory=WellConfig)
    ouu: OuuConfig = field(default_factory=OuuConfig)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    seed: int = setting(NATURAL, 0)

    def __post_init__(self):
        check_settings(self)
        if self.ouu.trace_mode == "eigenbasis":
            check_eigenbasis_size(self.mesh, "ouu: n_tr", [self.ouu.n_tr])
        # the root seed is the only seed source; it also seeds the probes
        self.ouu = dataclasses.replace(self.ouu, seed=self.seed)


def _from_dict(cls, data, path=""):
    """Build ``cls`` from a mapping; a field whose default is a section is
    built from its own mapping first."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {path or cls.__name__!r} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if cls is OuuConfig:  # a config file may not set it: it is the root seed
        del fields["seed"]
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys at {path or '<root>'}: {sorted(unknown)}")
    kwargs = dict(data)
    for name, value in data.items():
        section = fields[name].default_factory
        if dataclasses.is_dataclass(section):
            here = f"{path}: {name}" if path else name
            kwargs[name] = _from_dict(section, value, here)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _reject_unread(cfg, base):
    """``cfg``, unless it is semilinear and sets a mesh extent, mean, wells or
    z0 that the profile mapping ``base`` does not: that problem reads none."""
    if cfg.experiment.problem == "semilinear":
        base = _from_dict(RunConfig, base)
        changed = [key for key in ("mesh.lx", "mesh.ly", "random_field.mean",
                                   "wells", "ouu.z0")
                   if attrgetter(key)(cfg) != attrgetter(key)(base)]
        if changed:
            raise ConfigError(
                f"the semilinear problem does not read {', '.join(changed)}")
    return cfg


def config_from_dict(data):
    """Strictly parse a nested mapping into a RunConfig; a value that its
    section rejects, or a semilinear setting it does not read, is a ConfigError."""
    return _reject_unread(_from_dict(RunConfig, data), PROFILES["paper_section6"])


def config_to_dict(cfg):
    """Serialize a RunConfig back into plain nested mappings, leaving out
    ``ouu.seed``, which is the root ``seed``."""
    out = dataclasses.asdict(cfg)
    del out["ouu"]["seed"]
    return out


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


PROFILES = {
    "paper_section6": {},
    "desk": {
        "mesh": {"nx": 20, "ny": 10},
        "wells": {"sigma": 0.1},
        "ouu": {"n_tr": 8, "max_iter": 40},
        "experiment": {
            "rate_n_mc": 200,
            "true_risk_samples": 500,
            "compare_eval_samples": 300,
            "compare_n_tr": [2, 8],
            "compare_n_mc": [2, 8],
            "compare_max_iter": 25,
        },
    },
}


def _merge(base, extra):
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_config(profile=None, config_path=None, overrides=None):
    """Profile defaults, overlaid with a config file, then CLI overrides."""
    if profile is None:
        profile = "paper_section6"
    if profile not in PROFILES:
        raise ConfigError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    data = dict(PROFILES[profile])
    if config_path is not None:
        data = _merge(data, _read_json(config_path))
    if overrides:
        data = _merge(data, overrides)
    return _reject_unread(_from_dict(RunConfig, data), PROFILES[profile])


# -- builders -------------------------------------------------------------------


def build_mean_field(mesh, spec):
    """Nodal mean log-conductivity from its (validated) config description."""
    out = np.full(mesh.n_nodes, float(spec.value))
    for (cx, cy), amp in zip(spec.centers, spec.amplitudes):
        r2 = (mesh.node_x - cx) ** 2 + (mesh.node_y - cy) ** 2
        out += amp * np.exp(-0.5 * r2 / spec.width**2)
    return out


def build_ouu_config(ouu, seed):
    """``ouu`` with its probe seed replaced by ``seed``.  A parsed
    ``RunConfig.ouu`` already carries the root seed and needs no call."""
    return dataclasses.replace(ouu, seed=seed)


def build_setup(cfg):
    """Mesh, centered Gaussian field, and the problem ``experiment.problem``
    names: the flow problem on ``cfg.mesh`` about the configured mean, or the
    semilinear one on the unit square, its field the flux on the trace."""
    if cfg.experiment.problem == "semilinear":
        mesh = Mesh(cfg.mesh.nx, cfg.mesh.ny, 1.0, 1.0)
        problem = SemilinearProblem(mesh, c=cfg.experiment.semilinear_c)
        gf = GaussianField(problem.trace_space, cfg.random_field.kappa,
                           cfg.random_field.alpha)
        return mesh, gf, problem
    mean = build_mean_field(cfg.mesh, cfg.random_field.mean)
    problem = PoissonFlowProblem(cfg.mesh, wells=cfg.wells, mean=mean)
    gf = GaussianField(problem.space, cfg.random_field.kappa,
                       cfg.random_field.alpha)
    return cfg.mesh, gf, problem
