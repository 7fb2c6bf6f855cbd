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
from .grid import MIN_NODES
from .rates import FAMILIES, RATE_NAMES, Rate, RateModel, default_model


@dataclass
class ExperimentConfig:
    eps_list: tuple = (0.0, 0.01, 0.05)
    delta_list: tuple = (0.005, 0.01)
    shapes: tuple = ("poly", "cosine")
    seeds: tuple = (1,)


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


# The one declaration of the fixed sections: key -> type, where (t,) is a
# comma-separated list of t.  Drives loads_config, dumps_config and
# config_hash.
_SCHEMA = {
    "grid": {"n": int},
    "solver": {"eps": float, "dt": float, "t_end": float,
               "output_interval": float, "splitting": str,
               "clip_tol": float, "snapshot_every": int},
    "experiment": {"eps_list": (float,), "delta_list": (float,),
                   "shapes": (str,), "seeds": (int,)},
    "paths": {"out_dir": str, "resume": str},
}
# (section, key) pairs config_hash leaves out: they do not change a trajectory
_UNHASHED = {("solver", "t_end"), ("solver", "snapshot_every"),
             *(("experiment", key) for key in _SCHEMA["experiment"]),
             *(("paths", key) for key in _SCHEMA["paths"])}


def _values(cfg):
    """{section: {key: value}} of the fixed sections, in _SCHEMA order."""
    held = {"grid": {"n": cfg.grid_n},
            "solver": {**vars(cfg.solver), "snapshot_every": cfg.snapshot_every},
            "experiment": vars(cfg.experiment),
            "paths": {"out_dir": cfg.out_dir, "resume": cfg.resume}}
    return {section: {key: held[section][key] for key in keys}
            for section, keys in _SCHEMA.items()}


def _parse(section, key, raw, typ):
    try:
        if isinstance(typ, tuple):
            return tuple(typ[0](x.strip()) for x in raw.split(",") if x.strip())
        return typ(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc


def _format(value, typ):
    # str() of a float is its shortest round-trip representation
    return ", ".join(map(str, value)) if isinstance(typ, tuple) else str(value)


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
    defaults = default_config()
    rates = defaults.rates
    values = _values(defaults)

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
            params = {key: _parse(section, key, raw, float)
                      for key, raw in items.items()}
            try:
                rates[name] = Rate(family, params)
            except ValueError as exc:
                raise ConfigError(f"[{section}]: {exc}") from exc
        elif section in _SCHEMA:
            for key, raw in items.items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"{section}.{key}: unknown key")
                values[section][key] = _parse(section, key, raw,
                                              _SCHEMA[section][key])
        else:
            raise ConfigError(f"unknown section [{section}]")

    solver = values["solver"]
    snapshot_every = solver.pop("snapshot_every")
    if values["grid"]["n"] < MIN_NODES:
        raise ConfigError(
            f"grid.n: must be >= {MIN_NODES}, got {values['grid']['n']}")
    if snapshot_every < 1:
        raise ConfigError("solver.snapshot_every: must be >= 1")
    try:
        solver = SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    return RunConfig(rates=rates, grid_n=values["grid"]["n"], solver=solver,
                     experiment=ExperimentConfig(**values["experiment"]),
                     snapshot_every=snapshot_every, **values["paths"])


def load_config(path):
    """Load a configuration file; see :func:`loads_config`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def _write(cfg, leave_out=()):
    parser = configparser.ConfigParser(interpolation=None)
    for name in RATE_NAMES:
        rate = cfg.rates[name]
        parser[f"rates.{name}"] = {"family": rate.family, **{
            key: repr(value) for key, value in sorted(rate.params.items())}}
    for section, values in _values(cfg).items():
        kept = {key: _format(value, _SCHEMA[section][key])
                for key, value in values.items()
                if (section, key) not in leave_out}
        if kept:
            parser[section] = kept
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def dumps_config(cfg):
    """Serialize the fully resolved configuration as INI text."""
    return _write(cfg)


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg))


def config_hash(cfg):
    """Stable short hash of what determines a trajectory (provenance).

    Covers the rates, the grid and the solver keys except ``t_end`` and
    ``snapshot_every``, so a run resumed with a longer horizon or written
    elsewhere keeps its hash; the experiment matrix and paths are left out.
    """
    text = _write(cfg, _UNHASHED)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
