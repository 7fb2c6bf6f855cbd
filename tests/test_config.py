from dataclasses import replace

import pytest

from spheroid import (ConfigError, config_hash, default_config, dumps_config,
                      load_config, loads_config)


def test_minimal_config_applies_defaults(tmp_path):
    text = """
[rates.F]
family = linear

[rates.K_B]
family = linear

[rates.K_P]
family = linear

[rates.K_Q]
family = sigmoid

[rates.K_D]
family = sigmoid
"""
    cfg = loads_config(text)
    assert cfg.grid_n == 201
    assert cfg.solver.dt == 0.02
    assert cfg.rates["F"].params == {"slope": 1.0}
    assert cfg.rates["K_Q"].params == {"amp": 0.5, "steepness": 1.0, "center": 0.5}
    assert cfg.experiment.shapes == ("poly", "cosine")


def test_empty_config_is_all_defaults():
    assert loads_config("") == default_config()


def test_grid_validation_names_key():
    with pytest.raises(ConfigError) as err:
        loads_config("[grid]\nn = 3\n")
    assert "grid.n: must be >= 4" in str(err.value)


def test_unknown_key_and_section():
    with pytest.raises(ConfigError) as err:
        loads_config("[solver]\ntimestep = 0.1\n")
    assert "solver.timestep" in str(err.value)
    with pytest.raises(ConfigError):
        loads_config("[solvers]\ndt = 0.1\n")
    with pytest.raises(ConfigError):
        loads_config("[rates.K_X]\nfamily = linear\n")
    # removed options are unknown keys, not silently ignored
    for text, key in (("[solver]\ninterp = linear\n", "solver.interp"),
                      ("[solver]\ntheta = 0.5\n", "solver.theta"),
                      ("[experiment]\nworkers = 2\n", "experiment.workers"),
                      ("[solver]\nbvp_tol = 1e-10\n", "solver.bvp_tol"),
                      ("[experiment]\nfit_window = 0.5\n",
                       "experiment.fit_window"),
                      ("[experiment]\nfit_floor = 1e-13\n",
                       "experiment.fit_floor"),
                      ("[solver]\nearly_stop_floor = 1e-3\n",
                       "solver.early_stop_floor")):
        with pytest.raises(ConfigError) as err:
            loads_config(text)
        assert key in str(err.value)


def test_bad_value_names_key():
    with pytest.raises(ConfigError) as err:
        loads_config("[solver]\ndt = fast\n")
    assert "solver.dt" in str(err.value)


def test_parse_error_carries_line_info():
    with pytest.raises(ConfigError) as err:
        loads_config("[solver\ndt = 0.1\n")
    assert "line" in str(err.value).lower()


def test_solver_validation_wrapped():
    with pytest.raises(ConfigError):
        loads_config("[solver]\ndt = -0.5\n")
    with pytest.raises(ConfigError):
        loads_config("[solver]\nsplitting = strang\n")
    for text in ("dt = nan", "eps = inf", "t_end = nan", "output_interval = inf"):
        with pytest.raises(ConfigError) as err:
            loads_config(f"[solver]\n{text}\n")
        assert "finite" in str(err.value)


def test_rate_params_validated():
    with pytest.raises(ConfigError):
        loads_config("[rates.F]\nfamily = linear\ncurvature = 1\n")
    with pytest.raises(ConfigError):
        loads_config("[rates.F]\nfamily = quadratic\n")
    with pytest.raises(ConfigError):
        loads_config("[rates.F]\nslope = 1.0\n")  # family missing


def test_round_trip_identity(tmp_path):
    cfg = default_config()
    cfg.grid_n = 401
    cfg.experiment.eps_list = (0.0, 0.025)
    text = dumps_config(cfg)
    again = loads_config(text)
    assert again == cfg
    # and via file
    path = tmp_path / "run.config"
    path.write_text(text)
    assert load_config(path) == cfg


def test_config_hash_stable_and_sensitive():
    a = default_config()
    b = default_config()
    assert config_hash(a) == config_hash(b)
    # horizon and output paths do not change a trajectory
    b.solver = replace(b.solver, t_end=1.0)
    b.out_dir = "elsewhere"
    b.resume = "snap_000005.snap"
    assert config_hash(a) == config_hash(b)
    b.grid_n = 101
    assert config_hash(a) != config_hash(b)
    c = default_config()
    c.solver = replace(c.solver, dt=0.01)
    assert config_hash(a) != config_hash(c)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.config")
