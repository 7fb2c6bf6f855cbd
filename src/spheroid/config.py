"""Run configuration: flat-sectioned key-value text files.

Sections: ``[rates.F]`` .. ``[rates.K_D]`` (family plus named numeric
parameters), ``[grid]``, ``[solver]``, ``[experiment]``, ``[paths]``.
Every key has a documented default, applied when absent; unknown sections
or keys are errors.  ``dumps_config`` writes the fully resolved
configuration back out, and load(dumps(cfg)) == cfg holds exactly
(floats are emitted in round-trip representation).
"""

import configparser
import hashlib
import io
from dataclasses import dataclass, field

from .errors import ConfigError
from .evolution import SolverConfig
from .rates import FAMILIES, RATE_NAMES, Rate, RateModel, default_model


@dataclass
class ExperimentConfig:
    eps_list: tuple = (0.0, 0.01, 0.05)
    delta_list: tuple = (0.005, 0.01)
    shapes: tuple = ("poly", "cosine")
    seeds: tuple = (1,)
    fit_window: float = 0.5
    fit_floor: float = 1e-13


@dataclass
class RunConfig:
    rates: dict = field(default_factory=dict)   # name -> Rate
    grid_n: int = 201
    solver: SolverConfig = field(default_factory=SolverConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    snapshot_every: int = 50        # snapshots every this many outputs
    out_dir: str = "out"
    resume: str = ""

    def model(self):
        return RateModel(**self.rates)


def default_config():
    model = default_model()
    return RunConfig(rates={name: getattr(model, name) for name in RATE_NAMES})


_SOLVER_KEYS = {
    "eps": float, "dt": float, "t_end": float, "output_interval": float,
    "splitting": str, "bvp_tol": float, "clip_tol": float,
    "early_stop_floor": float, "snapshot_every": int,
}
_EXPERIMENT_KEYS = {
    "eps_list": "floats", "delta_list": "floats", "shapes": "strs",
    "seeds": "ints", "fit_window": float, "fit_floor": float,
}
_PATH_KEYS = {"out_dir": str, "resume": str}


def _parse_scalar(section, key, raw, typ):
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        if typ is str:
            return raw.strip()
        if typ == "floats":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if typ == "ints":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if typ == "strs":
            return tuple(x.strip() for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    raise AssertionError(typ)


def _load_parser(text):
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return parser


def loads_config(text):
    """Parse and validate configuration text; defaults fill absent keys."""
    parser = _load_parser(text)
    cfg = default_config()
    solver_kwargs = {}
    snapshot_every = cfg.snapshot_every

    for section in parser.sections():
        items = dict(parser.items(section))
        if section.startswith("rates."):
            name = section[len("rates."):]
            if name not in RATE_NAMES:
                raise ConfigError(f"unknown rate section [{section}]")
            family = items.pop("family", None)
            if family is None:
                raise ConfigError(f"{section}.family is required")
            if family not in FAMILIES:
                raise ConfigError(f"{section}.family: unknown family {family!r}")
            params = {}
            for key, raw in items.items():
                params[key] = _parse_scalar(section, key, raw, float)
            try:
                cfg.rates[name] = Rate(family, params)
            except ValueError as exc:
                raise ConfigError(f"[{section}]: {exc}") from exc
        elif section == "grid":
            for key, raw in items.items():
                if key != "n":
                    raise ConfigError(f"grid.{key}: unknown key")
                cfg.grid_n = _parse_scalar(section, key, raw, int)
        elif section == "solver":
            for key, raw in items.items():
                if key not in _SOLVER_KEYS:
                    raise ConfigError(f"solver.{key}: unknown key")
                value = _parse_scalar(section, key, raw, _SOLVER_KEYS[key])
                if key == "snapshot_every":
                    snapshot_every = value
                else:
                    solver_kwargs[key] = value
        elif section == "experiment":
            for key, raw in items.items():
                if key not in _EXPERIMENT_KEYS:
                    raise ConfigError(f"experiment.{key}: unknown key")
                setattr(cfg.experiment, key,
                        _parse_scalar(section, key, raw, _EXPERIMENT_KEYS[key]))
        elif section == "paths":
            for key, raw in items.items():
                if key not in _PATH_KEYS:
                    raise ConfigError(f"paths.{key}: unknown key")
                setattr(cfg, key, _parse_scalar(section, key, raw, str))
        else:
            raise ConfigError(f"unknown section [{section}]")

    if cfg.grid_n < 3:
        raise ConfigError(f"grid.n: must be >= 3, got {cfg.grid_n}")
    try:
        cfg.solver = SolverConfig(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    cfg.snapshot_every = snapshot_every
    if cfg.snapshot_every < 1:
        raise ConfigError("solver.snapshot_every: must be >= 1")
    return cfg


def load_config(path):
    """Load a configuration file; see :func:`loads_config`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def dumps_config(cfg):
    """Serialize the fully resolved configuration as INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    for name in RATE_NAMES:
        rate = cfg.rates[name]
        section = f"rates.{name}"
        parser.add_section(section)
        parser.set(section, "family", rate.family)
        for key, value in sorted(rate.params.items()):
            parser.set(section, key, repr(value))
    parser.add_section("grid")
    parser.set("grid", "n", str(cfg.grid_n))
    parser.add_section("solver")
    s = cfg.solver
    for key in ("eps", "dt", "t_end", "output_interval", "bvp_tol",
                "clip_tol", "early_stop_floor"):
        parser.set("solver", key, repr(getattr(s, key)))
    parser.set("solver", "splitting", s.splitting)
    parser.set("solver", "snapshot_every", str(cfg.snapshot_every))
    parser.add_section("experiment")
    e = cfg.experiment
    parser.set("experiment", "eps_list", ", ".join(repr(x) for x in e.eps_list))
    parser.set("experiment", "delta_list", ", ".join(repr(x) for x in e.delta_list))
    parser.set("experiment", "shapes", ", ".join(e.shapes))
    parser.set("experiment", "seeds", ", ".join(str(x) for x in e.seeds))
    parser.set("experiment", "fit_window", repr(e.fit_window))
    parser.set("experiment", "fit_floor", repr(e.fit_floor))
    parser.add_section("paths")
    parser.set("paths", "out_dir", cfg.out_dir)
    parser.set("paths", "resume", cfg.resume)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg))


def config_hash(cfg):
    """Stable short hash of what determines a trajectory (provenance).

    Covers the rates, the grid and the solver fields except ``t_end`` and
    ``snapshot_every``, so a run resumed with a longer horizon or written
    elsewhere keeps its hash; the experiment matrix and paths are left out.
    """
    parser = _load_parser(dumps_config(cfg))
    parser.remove_section("experiment")
    parser.remove_section("paths")
    parser.remove_option("solver", "t_end")
    parser.remove_option("solver", "snapshot_every")
    buf = io.StringIO()
    parser.write(buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()[:16]
