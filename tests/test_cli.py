import logging
import os
import re

import numpy as np
import pytest

from spheroid.cli import cli

CONFIG = """
[grid]
n = 101

[solver]
dt = 0.02
t_end = 2.0
output_interval = 0.2
snapshot_every = 5
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.config"
    path.write_text(CONFIG)
    return str(path)


def test_usage_errors(capsys):
    assert cli(["no-such-command"]) == 2
    assert cli(["simulate", "--no-such-flag"]) == 2
    assert cli([]) == 2
    # out-of-range overrides are usage errors that name the flag
    for argv in (["lemma31", "--grid-n", "2"], ["lemma31", "--grid-n", "3"],
                 ["simulate", "--grid-n", "x"],
                 ["simulate", "--eps", "-1"], ["stability", "--eps", "nan"],
                 ["simulate", "--eps", "inf"], ["stability", "--delta", "-0.01"],
                 ["simulate", "--tend", "nan"], ["stability", "--tend", "inf"],
                 ["simulate", "--tend", "0"], ["stability", "--tend", "-1"],
                 ["simulate", "--seed", "-1"],
                 ["stationary", "--tol", "0"], ["stationary", "--tol", "-1"],
                 ["stationary", "--tol", "nan"],
                 ["lemma31", "--z-values", "0,a"], ["lemma31", "--z-values", "inf"],
                 ["simulate", "--shape", "square"]):
        capsys.readouterr()
        assert cli(argv) == 2, argv
        assert f"argument {argv[1]}" in capsys.readouterr().err, argv
    # check-assumptions always samples rates.SAMPLES points: no flag sets it
    assert cli(["check-assumptions", "--samples", "1"]) == 2
    assert "unrecognized arguments: --samples 1" in capsys.readouterr().err


# each subcommand takes only the flags its handler reads
IGNORED_BEFORE = [("check-assumptions", flag) for flag in
                  ("--out", "--seed", "--grid-n", "--eps", "--delta", "--tend")]
IGNORED_BEFORE += [("lemma31", flag) for flag in
                   ("--out", "--seed", "--eps", "--delta", "--tend")]
IGNORED_BEFORE += [("stationary", flag) for flag in
                   ("--seed", "--eps", "--delta", "--tend")]
IGNORED_BEFORE += [("convergence", flag) for flag in
                   ("--seed", "--grid-n", "--eps", "--delta", "--tend")]
FLAG_VALUES = {"--out": "out", "--seed": "1", "--grid-n": "51", "--eps": "0.1",
               "--delta": "0.01", "--tend": "1.0"}


@pytest.mark.parametrize("command,flag", IGNORED_BEFORE)
def test_unread_flag_rejected(command, flag, capsys):
    assert cli([command, flag, FLAG_VALUES[flag]]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_assumptions_ok(capsys):
    assert cli(["check-assumptions"]) == 0
    out = capsys.readouterr().out
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert name in out
    assert "f(1,1)" in out


def test_check_assumptions_failing_model(tmp_path, capsys):
    cfg = tmp_path / "bad.config"
    cfg.write_text("[rates.K_B]\nfamily = constant\nvalue = 0.3\n")
    assert cli(["check-assumptions", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bounds_subcommand(capsys):
    assert cli(["lemma31", "--grid-n", "201", "--z-values=-1,0,1"]) == 0
    out = capsys.readouterr().out
    assert "all bounds hold" in out
    assert out.count("pass") == 21


def test_missing_config_file():
    assert cli(["check-assumptions", "--config", "/nope.config"]) == 1


def test_stationary_subcommand(tmp_path, config_path, capsys):
    out_dir = str(tmp_path / "out")
    code = cli(["stationary", "--config", config_path, "--out", out_dir])
    assert code == 0
    printed = capsys.readouterr().out
    assert "z*" in printed and "direct" in printed
    assert re.search(r"^work: \d+ step calls, \d+ states stepped, \d+ "
                     r"Jacobians$", printed, re.MULTILINE)
    assert os.path.exists(os.path.join(out_dir, "stationary.snap"))
    assert os.path.exists(os.path.join(out_dir, "stationary.csv"))
    with open(os.path.join(out_dir, "stationary.csv")) as fh:
        assert fh.readline().strip() == "r,c,p,v"


def _read_rows(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_simulate_deterministic_and_resume(tmp_path, config_path):
    # full run
    out_a = str(tmp_path / "a")
    assert cli(["simulate", "--config", config_path, "--out", out_a,
                "--delta", "0.01", "--seed", "1"]) == 0
    rows_a = _read_rows(os.path.join(out_a, "timeseries.csv"))
    assert rows_a[0].startswith("t,R,z,v1,")
    t_col = [float(r.split(",")[0]) for r in rows_a[1:]]
    assert all(b > a for a, b in zip(t_col, t_col[1:]))

    # identical second run is byte-identical
    out_b = str(tmp_path / "b")
    assert cli(["simulate", "--config", config_path, "--out", out_b,
                "--delta", "0.01", "--seed", "1"]) == 0
    assert _read_rows(os.path.join(out_b, "timeseries.csv")) == rows_a

    # interrupted at t=1 (snapshot written at output 5), then resumed
    out_c = str(tmp_path / "c")
    assert cli(["simulate", "--config", config_path, "--out", out_c,
                "--delta", "0.01", "--seed", "1", "--tend", "1.0"]) == 0
    snap = os.path.join(out_c, "snap_000005.snap")
    assert os.path.exists(snap)
    assert cli(["simulate", "--config", config_path, "--out", out_c,
                "--resume", snap]) == 0
    rows_head = _read_rows(os.path.join(out_c, "timeseries.csv"))
    rows_tail = _read_rows(os.path.join(out_c, "timeseries_resumed.csv"))
    assert rows_tail[0] == rows_a[0]
    stitched = rows_head + rows_tail[1:]
    assert stitched == rows_a

    # the resumed leg numbers its outputs after the snapshot's index:
    # output 10 (t = 2.0) lands in snap_000010, matching the full run
    from spheroid import load_snapshot
    state_c, header_c = load_snapshot(os.path.join(out_c, "snap_000010.snap"))
    state_a, header_a = load_snapshot(os.path.join(out_a, "snap_000010.snap"))
    assert header_c["output_index"] == header_a["output_index"] == 10
    assert state_c.t == state_a.t
    assert np.array_equal(state_c.c, state_a.c)
    assert np.array_equal(state_c.p, state_a.p)


def test_aborted_run_saves_and_resumes_from_its_last_output(
        tmp_path, config_path, monkeypatch, capsys):
    # a step that raises from t = 0.5 on ends the run; emergency.snap holds
    # the t = 0.4 output with its step and output index, so the run
    # resumed from it continues as the uninterrupted one
    from spheroid import ConvergenceError, evolution, load_snapshot
    args = ["simulate", "--config", config_path, "--grid-n", "51",
            "--tend", "1", "--delta", "0.01", "--seed", "1"]
    out_a = str(tmp_path / "a")
    assert cli(args + ["--out", out_a]) == 0
    step = evolution.step

    def failing(model, state, grid, config, clip=None):
        if state.t > 0.49:
            raise ConvergenceError("injected failure")
        return step(model, state, grid, config, clip=clip)

    out_b = str(tmp_path / "b")
    with monkeypatch.context() as mp:
        mp.setattr(evolution, "step", failing)
        capsys.readouterr()
        assert cli(args + ["--out", out_b]) == 1
    assert capsys.readouterr().err.strip() == (
        "run aborted: step failed at t=0.5: injected failure; last good "
        "state saved to emergency.snap")
    snap = os.path.join(out_b, "emergency.snap")
    state, header = load_snapshot(snap)
    assert state.t == pytest.approx(0.4, abs=1e-12)
    assert (header["step"], header["output_index"]) == (20, 2)

    assert cli(args + ["--out", out_b, "--resume", snap]) == 0
    rows_a = _read_rows(os.path.join(out_a, "timeseries.csv"))
    rows_b = _read_rows(os.path.join(out_b, "timeseries_resumed.csv"))
    assert rows_b[0] == rows_a[0]
    assert rows_b[1:] == [row for row in rows_a[1:]
                          if float(row.split(",")[0]) > 0.5]
    assert len(rows_b) == 4


def test_rejected_initial_data_aborts_without_snapshot(
        tmp_path, config_path, monkeypatch, capsys):
    import spheroid.cli as cli_mod
    perturb = cli_mod.admissible_init

    def non_finite(*args):
        init = perturb(*args)
        init.p[5] = np.nan
        return init

    monkeypatch.setattr(cli_mod, "admissible_init", non_finite)
    out_dir = str(tmp_path / "x")
    capsys.readouterr()
    assert cli(["simulate", "--config", config_path, "--grid-n", "51",
                "--tend", "1", "--out", out_dir]) == 1
    assert capsys.readouterr().err.strip() == (
        "run aborted: step failed at t=0: non-finite initial data")
    assert not os.path.exists(os.path.join(out_dir, "emergency.snap"))


def test_simulate_zero_amplitude_stays_at_floor(tmp_path, config_path):
    out_dir = str(tmp_path / "z")
    assert cli(["simulate", "--config", config_path, "--out", out_dir,
                "--delta", "0.0"]) == 0
    rows = _read_rows(os.path.join(out_dir, "timeseries.csv"))
    header = rows[0].split(",")
    for row in rows[1:]:
        vals = dict(zip(header, (float(x) for x in row.split(","))))
        for name in ("c_dev", "p_dev", "z_dev", "eta_dev"):
            assert vals[name] < 1e-6, (name, vals[name])


def test_resume_rejects_wrong_grid(tmp_path, config_path):
    out_dir = str(tmp_path / "x")
    assert cli(["simulate", "--config", config_path, "--out", out_dir,
                "--tend", "1.0"]) == 0
    snap = os.path.join(out_dir, "snap_000000.snap")
    code = cli(["simulate", "--config", config_path, "--out", out_dir,
                "--resume", snap, "--grid-n", "51"])
    assert code == 1


def _forbid_reference_solve(monkeypatch):
    """Fail the test if ``simulate`` solves its stationary reference: a bad
    snapshot or horizon is rejected before that solve."""
    import spheroid.cli as cli_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("the stationary reference was solved")

    monkeypatch.setattr(cli_mod, "solve_stationary", no_solve)


def test_resume_from_missing_snapshot(tmp_path, monkeypatch, capsys):
    # status 1 and a one-line message, no traceback
    _forbid_reference_solve(monkeypatch)
    missing = str(tmp_path / "nope.snap")
    assert cli(["simulate", "--grid-n", "21", "--tend", "0.2",
                "--out", str(tmp_path / "x"), "--resume", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: cannot read snapshot: ")
    assert err.count("\n") == 1


def test_resume_past_the_horizon(tmp_path, config_path, monkeypatch,
                                 capsys):
    # a t_end not after the snapshot's t is a configuration error: status 1,
    # both times named, and no CSV of no records
    out_dir = str(tmp_path / "x")
    args = ["simulate", "--config", config_path, "--grid-n", "21",
            "--out", out_dir]
    assert cli(args + ["--tend", "1.0"]) == 0
    snap = os.path.join(out_dir, "snap_000005.snap")
    from spheroid import load_snapshot
    t = load_snapshot(snap)[0].t
    assert t == pytest.approx(1.0, abs=1e-12)
    _forbid_reference_solve(monkeypatch)
    for tend in ("0.2", "1.0"):
        capsys.readouterr()
        assert cli(args + ["--tend", tend, "--resume", snap]) == 1
        assert capsys.readouterr().err == (
            f"error: t_end = {float(tend)!r} is not after the snapshot's "
            f"t = {t!r}\n")
    assert not os.path.exists(os.path.join(out_dir, "timeseries_resumed.csv"))


def test_simulate_horizon_of_no_step(tmp_path, config_path, monkeypatch,
                                    capsys):
    # a t_end that rounds to no step of dt = 0.02 after the start is a
    # configuration error, fresh or resumed: status 1, one line, no CSV
    out_dir = str(tmp_path / "x")
    args = ["simulate", "--config", config_path, "--grid-n", "21",
            "--out", out_dir]
    with monkeypatch.context() as mp:
        _forbid_reference_solve(mp)
        assert cli(args + ["--tend", "0.01"]) == 1
    assert capsys.readouterr().err == (
        "error: t_end = 0.01 rounds to no step of dt = 0.02 after the "
        "initial time t = 0.0\n")
    assert not os.path.exists(os.path.join(out_dir, "timeseries.csv"))
    assert cli(args + ["--tend", "1.0"]) == 0
    snap = os.path.join(out_dir, "snap_000005.snap")
    from spheroid import load_snapshot
    t = load_snapshot(snap)[0].t
    _forbid_reference_solve(monkeypatch)
    capsys.readouterr()
    assert cli(args + ["--tend", "1.005", "--resume", snap]) == 1
    assert capsys.readouterr().err == (
        f"error: t_end = 1.005 rounds to no step of dt = 0.02 after the "
        f"snapshot's t = {t!r}\n")
    assert not os.path.exists(os.path.join(out_dir, "timeseries_resumed.csv"))


def test_rejected_simulate_leaves_no_directory(tmp_path, monkeypatch):
    # a horizon of no step and a missing snapshot are rejected before the
    # output directory is made
    _forbid_reference_solve(monkeypatch)
    out_dir = tmp_path / "d"
    for extra in (["--tend", "0.01"],
                  ["--resume", str(tmp_path / "nope.snap")]):
        assert cli(["simulate", "--grid-n", "21", "--out", str(out_dir)]
                   + extra) == 1
        assert not out_dir.exists(), extra


@pytest.mark.parametrize("eps", ["0.0", "0.05"])
def test_resume_mid_run_continues_the_run(tmp_path, config_path, eps):
    # resumed from its t = 1 snapshot, a run writes the uninterrupted run's
    # records after it, and leaves every snapshot byte for byte as it was:
    # the snapshot it resumed from is not written again, and the resumed
    # leg's own snap_000010 is the uninterrupted run's
    out_dir = tmp_path / "x"
    args = ["simulate", "--config", config_path, "--grid-n", "51",
            "--eps", eps, "--out", str(out_dir)]
    assert cli(args + ["--delta", "0.01", "--seed", "3"]) == 0
    snaps = {p.name: p.read_bytes() for p in out_dir.glob("snap_*.snap")}
    assert sorted(snaps) == ["snap_000000.snap", "snap_000005.snap",
                             "snap_000010.snap"]
    snap = out_dir / "snap_000005.snap"
    os.utime(snap, (0, 0))
    assert cli(args + ["--resume", str(snap)]) == 0
    rows = _read_rows(out_dir / "timeseries.csv")
    resumed = _read_rows(out_dir / "timeseries_resumed.csv")
    assert resumed[0] == rows[0]
    assert resumed[1:] == [row for row in rows[1:]
                           if float(row.split(",")[0]) > 1.0 + 1e-9]
    assert len(resumed) == 6
    assert {p.name: p.read_bytes()
            for p in out_dir.glob("snap_*.snap")} == snaps
    assert snap.stat().st_mtime == 0


def test_clipped_run_warns_once(tmp_path, config_path, monkeypatch, caplog,
                                capsys):
    # one node of p a step's transport pushes 1e-6 above 1 is a clip event
    # of every step; the run reports them in one warning
    from spheroid import evolution
    transport = evolution.transport_step

    def overshoot(*args):
        p = transport(*args)
        p[..., 10] = 1.0 + 1e-6
        return p

    monkeypatch.setattr(evolution, "transport_step", overshoot)
    with caplog.at_level(logging.WARNING, logger="spheroid"):
        assert cli(["simulate", "--config", config_path, "--grid-n", "21",
                    "--delta", "0.0", "--tend", "0.2",
                    "--out", str(tmp_path / "x")]) == 0
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno >= logging.WARNING]
    assert warnings == ["clipped fields beyond tolerance 10 times "
                        "(max excess 1.000e-06)"]
    assert "clip" not in capsys.readouterr().err


def test_resume_under_another_config_warns(tmp_path, caplog):
    # the snapshot's config hash differs from the resuming run's: the run
    # goes on, and the warning names both hashes
    from spheroid import config_hash, load_config
    small = CONFIG.replace("n = 101", "n = 21")
    first, other = tmp_path / "first.config", tmp_path / "other.config"
    first.write_text(small)
    other.write_text(small.replace("dt = 0.02", "dt = 0.01"))
    out_dir = str(tmp_path / "x")
    assert cli(["simulate", "--config", str(first), "--out", out_dir,
                "--tend", "0.2"]) == 0
    snap = os.path.join(out_dir, "snap_000000.snap")
    for path, warned in ((first, False), (other, True)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spheroid"):
            assert cli(["simulate", "--config", str(path), "--out", out_dir,
                        "--tend", "0.2", "--resume", snap]) == 0
        hashes = [config_hash(load_config(p)) for p in (first, path)]
        warning = ("resume snapshot was produced under a different "
                   "configuration (hash %s vs %s)" % tuple(hashes))
        assert (warning in caplog.messages) == warned


def test_stability_rejects_bad_eps_list(tmp_path, capsys):
    # a negative eps in the config is a configuration error: status 1 and
    # one message, no traceback
    path = tmp_path / "bad.config"
    path.write_text("[experiment]\neps_list = -0.01, 0.0\n")
    assert cli(["stability", "--config", str(path),
                "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: experiment.eps_list: entries must be finite and "
                   ">= 0, got (-0.01, 0.0)\n")


def test_stability_subcommand_small(tmp_path, config_path):
    out_dir = str(tmp_path / "s")
    code = cli(["stability", "--config", config_path, "--out", out_dir,
                "--eps", "0.0", "--delta", "0.01", "--seed", "2",
                "--tend", "3.0"])
    assert code == 0
    rows = _read_rows(os.path.join(out_dir, "stability.csv"))
    assert rows[0].startswith("eps,delta,shape,seed,status,converged,crossing_time")
    assert len(rows) == 3  # header + two shapes


def test_convergence_run_that_fails_is_one_error_line(tmp_path, monkeypatch,
                                                      capsys):
    # the suite's runs step through simulate: a failing step ends the
    # command with its NumericsError, status 1, and no output directory
    from spheroid import evolution

    def failing(*args):
        raise ValueError("injected failure")

    monkeypatch.setattr(evolution, "transport_step", failing)
    out_dir = tmp_path / "c"
    assert cli(["convergence", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == ["error: step failed at t=0: injected failure"]
    assert not out_dir.exists()


def test_convergence_subcommand_reporting(monkeypatch, tmp_path, capsys):
    from spheroid.analysis import ConvergenceStudy
    import spheroid.cli as cli_mod

    def fake_suite(model):
        return [
            ConvergenceStudy("diffusion-h", [101, 201, 401], [4e-4, 1e-4],
                             [2.0], True),
            ConvergenceStudy("transport-h", [101, 201, 401], [4e-4, 1e-4],
                             [2.0], True),
            ConvergenceStudy("dt", [0.08, 0.04, 0.02], [4e-4, 1e-4], [2.0], True),
        ]

    monkeypatch.setattr(cli_mod, "standard_convergence_suite", fake_suite)
    assert cli(["convergence", "--out", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "diffusion-h" in out and "dt" in out
    rows = _read_rows(str(tmp_path / "c" / "convergence.csv"))
    assert rows[0] == "kind,level_coarse,level_fine,diff,observed_order"
    assert len(rows) == 4

    def failing_suite(model):
        return [ConvergenceStudy("dt", [0.08, 0.04, 0.02], [4e-4, 3e-4],
                                 [0.4], True)]

    monkeypatch.setattr(cli_mod, "standard_convergence_suite", failing_suite)
    assert cli(["convergence", "--out", str(tmp_path / "c2")]) == 1
