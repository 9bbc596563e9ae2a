"""Run configuration: strict schema, dict round trip, and named profiles.

The ``paper_section6`` profile reproduces the canonical study setup
(79x39 mesh of (0,2)x(0,1), kappa = 2e-2, alpha = 4, gamma = 1e-5,
n_tr = 40, bounds [0, 16], uniform initial control 4).  Unknown keys are
rejected so silently ignored typos cannot skew an experiment.  The ``ouu``
section is the runtime ``OuuConfig`` itself, validated when the file is
parsed; its ``seed`` is not a key of its own but the root ``seed``, which
seeds the field draws and the trace probes alike.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_integers
from .fem import build_mesh
from .ouu import OuuConfig
from .poisson import (CONTROL_XS, CONTROL_YS, PRODUCTION_XS, PRODUCTION_YS,
                      WellConfig, grid_points, parabolic_target_profile)
from .random_field import GaussianField


def _require_real(name, v, positive=False):
    """Raise ``ValueError`` unless v is a finite real number (a bool is
    not), and a positive one if ``positive``."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not np.isfinite(v) or (positive and not v > 0.0)):
        kind = "positive number" if positive else "finite number"
        raise ValueError(f"{name}: {v!r} is not a {kind}")


@dataclass
class MeshSpec:
    nx: int = 79
    ny: int = 39
    lx: float = 2.0
    ly: float = 1.0

    def __post_init__(self):
        require_integers("nx", self.nx)
        require_integers("ny", self.ny)
        _require_real("lx", self.lx, positive=True)
        _require_real("ly", self.ly, positive=True)


@dataclass
class MeanSpec:
    """Mean log-conductivity: a constant, or a sum of Gaussian bumps of a
    positive ``width``."""

    type: str = "constant"
    value: float = 0.0
    centers: list = field(default_factory=list)
    amplitudes: list = field(default_factory=list)
    width: float = 0.25

    def __post_init__(self):
        if self.type not in ("constant", "bumps"):
            raise ValueError(f"type: unknown mean type {self.type!r}")
        _require_real("value", self.value)
        _require_real("width", self.width, positive=True)
        if self.type == "bumps":
            if len(self.centers) != len(self.amplitudes):
                raise ValueError("bumps need one amplitude per center")
            if any(np.shape(c) != (2,) for c in self.centers):
                raise ValueError("bump centers must be (x, y) pairs")
            for x in (x for c in self.centers for x in c):
                _require_real("centers", x)
            for a in self.amplitudes:
                _require_real("amplitudes", a)


@dataclass
class FieldSpec:
    kappa: float = 2e-2
    alpha: float = 4.0
    mean: MeanSpec = field(default_factory=MeanSpec)

    def __post_init__(self):
        _require_real("kappa", self.kappa, positive=True)
        _require_real("alpha", self.alpha, positive=True)


@dataclass
class WellSpec:
    """A well layout, by default ``poisson``'s canonical one."""

    sigma: float = 0.05
    control_xs: list = field(default_factory=lambda: list(CONTROL_XS))
    control_ys: list = field(default_factory=lambda: list(CONTROL_YS))
    production_xs: list = field(default_factory=lambda: list(PRODUCTION_XS))
    production_ys: list = field(default_factory=lambda: list(PRODUCTION_YS))
    targets: object = "parabolic"

    def __post_init__(self):
        _require_real("sigma", self.sigma, positive=True)


COMPARE_METHODS = ("quad_randomized", "quad_eigenbasis", "saa")


@dataclass
class ExperimentSpec:
    problem: str = "poisson"
    semilinear_c: float = 1.0
    eps_list: list = field(default_factory=lambda: [2.0**-k for k in range(7)])
    rate_n_mc: int = 2000
    n_samples: int = 3
    sample_eps: float = 1.0
    true_risk_samples: int = 10000
    compare_betas: list = field(default_factory=lambda: [0.5, 0.1, 0.01])
    compare_n_tr: list = field(default_factory=lambda: [4, 16])
    compare_n_mc: list = field(default_factory=lambda: [4, 16])
    compare_eval_samples: int = 2000
    compare_max_iter: int = 40
    compare_methods: list = field(default_factory=lambda: list(COMPARE_METHODS))

    def __post_init__(self):
        if self.problem not in ("poisson", "semilinear"):
            raise ValueError(f"unknown experiment problem {self.problem!r}")
        if not set(self.compare_methods) <= set(COMPARE_METHODS):
            raise ValueError(f"unknown compare method in {self.compare_methods}")
        for name in ("rate_n_mc", "n_samples", "true_risk_samples",
                     "compare_eval_samples", "compare_max_iter"):
            require_integers(name, getattr(self, name))
        for name in ("compare_n_tr", "compare_n_mc"):
            require_integers(f"{name} entries", *getattr(self, name))
        for name in ("rate_n_mc", "n_samples", "true_risk_samples",
                     "compare_eval_samples", "compare_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if any(n < 2 for n in self.compare_n_mc):
            raise ValueError("compare_n_mc entries must be at least 2")
        if self.sample_eps < 0.0:
            raise ValueError("sample_eps must be nonnegative")
        if self.semilinear_c < 0.0:
            raise ValueError("semilinear_c must be nonnegative")
        for name in ("compare_betas", "compare_n_tr"):
            if any(v < 0 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be nonnegative")
        if any(e <= 0.0 for e in self.eps_list):
            raise ValueError("eps_list entries must be positive")
        if len(set(self.eps_list)) < 2:
            raise ValueError("eps_list needs at least two distinct values "
                             "to fit a rate")


@dataclass
class RunConfig:
    mesh: MeshSpec = field(default_factory=MeshSpec)
    random_field: FieldSpec = field(default_factory=FieldSpec)
    wells: WellSpec = field(default_factory=WellSpec)
    ouu: OuuConfig = field(default_factory=OuuConfig)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    seed: int = 0

    def __post_init__(self):
        require_integers("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed: {self.seed} is negative")
        # the root seed is the only seed source; it also seeds the probes
        self.ouu = dataclasses.replace(self.ouu, seed=self.seed)


_SECTION_TYPES = {
    "mesh": MeshSpec,
    "random_field": FieldSpec,
    "wells": WellSpec,
    "ouu": OuuConfig,
    "experiment": ExperimentSpec,
    "mean": MeanSpec,
}


# fields that a config file may not set: ``ouu.seed`` is the root ``seed``
_DERIVED = {OuuConfig: {"seed"}}


def _finite(value):
    """False for NaN or an infinity (JSON admits both), also inside lists."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or np.isfinite(value)


def _from_dict(cls, data, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"section {path or cls.__name__!r} must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)} - _DERIVED.get(cls, set())
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys at {path or '<root>'}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        here = f"{path}: {name}" if path else name
        if name in _SECTION_TYPES:
            kwargs[name] = _from_dict(_SECTION_TYPES[name], value, here)
        else:
            kwargs[name] = value
    try:
        for name, value in kwargs.items():
            if not _finite(value):
                raise ValueError(f"{name}: {value!r} is not finite")
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def config_from_dict(data):
    """Strictly parse a nested mapping into a RunConfig; a section that its
    dataclass rejects (``OuuConfig`` validates itself) is a ConfigError."""
    return _from_dict(RunConfig, data)


def config_to_dict(cfg):
    """Serialize a RunConfig back into plain nested mappings, leaving out
    ``ouu.seed``, which is the root ``seed``."""
    out = dataclasses.asdict(cfg)
    del out["ouu"]["seed"]
    return out


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc


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
    return config_from_dict(data)


# -- builders -------------------------------------------------------------------


@contextmanager
def config_section(name):
    """Turn a ``ValueError`` from building config section ``name`` into a
    ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_mean_field(mesh, spec):
    """Nodal mean log-conductivity from its (validated) config description."""
    out = np.full(mesh.n_nodes, float(spec.value))
    if spec.type == "bumps":
        for (cx, cy), amp in zip(spec.centers, spec.amplitudes):
            r2 = (mesh.node_x - cx) ** 2 + (mesh.node_y - cy) ** 2
            out += amp * np.exp(-0.5 * r2 / spec.width**2)
    return out


def build_wells(spec):
    production = grid_points(spec.production_xs, spec.production_ys)
    if isinstance(spec.targets, str):
        if spec.targets != "parabolic":
            raise ConfigError(f"unknown target profile {spec.targets!r}")
        targets = parabolic_target_profile(production)
    else:
        targets = spec.targets
    with config_section("wells"):
        return WellConfig(
            control_points=grid_points(spec.control_xs, spec.control_ys),
            production_points=production,
            sigma=spec.sigma,
            targets=targets,
        )


def build_ouu_config(ouu, seed):
    """``ouu`` with its probe seed replaced by ``seed``.  A parsed
    ``RunConfig.ouu`` already carries the root seed and needs no call."""
    return dataclasses.replace(ouu, seed=seed)


def build_setup(cfg):
    """Mesh, Gaussian field, and flow problem from a RunConfig."""
    from .poisson import PoissonFlowProblem

    with config_section("mesh"):
        mesh = build_mesh(cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.lx, cfg.mesh.ly)
    mean = build_mean_field(mesh, cfg.random_field.mean)
    problem = PoissonFlowProblem(mesh, wells=build_wells(cfg.wells), mean=mean)
    gf = GaussianField(problem.space, cfg.random_field.kappa,
                       cfg.random_field.alpha, mean=mean)
    return mesh, gf, problem
