"""Command-line surface.

Subcommands: check-assumptions, stationary, simulate, stability,
convergence, lemma31.  Exit status is 0 on success, 1 when a requested
check fails or a run aborts, 2 for usage errors.  Verbosity is controlled
by the SPHEROID_LOG environment variable (debug/info/warning/error).
"""

import argparse
import logging
import math
import os
import sys
from dataclasses import replace

from .analysis import (CONVERGENCE_THRESHOLDS, PERTURBATION_SHAPES,
                       admissible_init, stability_experiment,
                       standard_convergence_suite)
from .config import (config_hash, default_config, load_config, save_config)
from .errors import ConfigError, SpheroidError
from .evolution import State, horizon_steps, simulate
from .grid import MIN_NODES, Grid
from .nutrient import bounds_report
from .output import (write_convergence_csv, write_profile_csv,
                     write_stability_csv, write_timeseries_csv)
from .rates import check_assumptions
from .snapshot import load_snapshot, save_snapshot
from .stationary import solve_stationary

log = logging.getLogger("spheroid")


def _setup_logging():
    level = os.environ.get("SPHEROID_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _bounded(kind, low=None, strict=False):
    """argparse type: a finite ``kind`` value, at least ``low`` if given
    (above it if ``strict``)."""
    op = ">" if strict else ">="

    def parse(text):
        value = kind(text)
        below = low is not None and (value <= low if strict else value < low)
        if not math.isfinite(value) or below:
            need = "finite" if low is None else f"finite and {op} {low}"
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = kind.__name__   # argparse names it in "invalid int value"
    return parse


def _floats(text):
    """argparse type: comma-separated finite floats."""
    return [_bounded(float)(x) for x in text.split(",") if x.strip()]


# the configuration overrides, by dest; each subcommand takes the ones its
# handler reads
_OVERRIDES = {
    "config": dict(help="configuration file path"),
    "out": dict(help="output directory (overrides paths.out_dir)"),
    "seed": dict(type=_bounded(int, 0), help="seed override (u64)"),
    "grid_n": dict(type=_bounded(int, MIN_NODES),
                   help="grid node count override"),
    "eps": dict(type=_bounded(float, 0.0), help="diffusion ratio override"),
    "delta": dict(type=_bounded(float, 0.0),
                  help="perturbation amplitude override"),
    "tend": dict(type=_bounded(float, 0.0, strict=True),
                 help="horizon override (> 0)"),
}


def _overrides(parser, *dests):
    for dest in dests:
        parser.add_argument("--" + dest.replace("_", "-"), **_OVERRIDES[dest])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spheroid",
        description="Radially symmetric two-species tumor free-boundary "
                    "simulator and stability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-assumptions",
                       help="verify the rate-model conditions (A1)-(A5)")
    p.set_defaults(handler=cmd_check_assumptions)
    _overrides(p, "config")

    p = sub.add_parser("lemma31",
                       help="check the analytic envelope bounds on the "
                            "nutrient profile and its sensitivities")
    p.set_defaults(handler=cmd_lemma31)
    _overrides(p, "config", "grid_n")
    p.add_argument("--z-values", type=_floats, default="-1,0,1",
                   help="comma-separated log-radius values")

    p = sub.add_parser("stationary", help="compute the stationary solution")
    p.set_defaults(handler=cmd_stationary)
    _overrides(p, "config", "out", "grid_n")
    p.add_argument("--tol", type=_bounded(float, 0.0, strict=True),
                   default=1e-6, help="stationarity tolerance (> 0)")
    p.add_argument("--no-cross-check", action="store_true")

    p = sub.add_parser("simulate", help="integrate one trajectory")
    p.set_defaults(handler=cmd_simulate)
    _overrides(p, *_OVERRIDES)
    p.add_argument("--resume", help="snapshot to continue from")
    p.add_argument("--shape", default="poly", choices=PERTURBATION_SHAPES,
                   help="perturbation shape")

    p = sub.add_parser("stability", help="run the perturbation-decay matrix")
    p.set_defaults(handler=cmd_stability)
    _overrides(p, *_OVERRIDES)

    p = sub.add_parser("convergence", help="run the refinement-order studies")
    p.set_defaults(handler=cmd_convergence)
    _overrides(p, "config", "out")
    return parser


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "grid_n", None) is not None:
        cfg.grid_n = args.grid_n
    if getattr(args, "eps", None) is not None:
        cfg.solver = replace(cfg.solver, eps=args.eps)
    if getattr(args, "tend", None) is not None:
        cfg.solver = replace(cfg.solver, t_end=args.tend)
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    return cfg


def _outdir(cfg):
    """The output directory, made when a run has passed its checks and has
    something to write, so a rejected run leaves none."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def cmd_check_assumptions(args):
    cfg = _load(args)
    report = check_assumptions(cfg.model())
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def cmd_lemma31(args):
    cfg = _load(args)
    report = bounds_report(cfg.model(), args.z_values, Grid(cfg.grid_n))
    for line in report.lines():
        print(line)
    print("all bounds hold" if report.all_passed else "BOUND VIOLATION")
    return 0 if report.all_passed else 1


def cmd_stationary(args):
    cfg = _load(args)
    solution = solve_stationary(cfg.model(), Grid(cfg.grid_n), tol=args.tol,
                                config=cfg.solver,
                                cross_check=not args.no_cross_check)
    print(f"z* = {solution.z!r}  (R* = {solution.radius!r})")
    print(f"|v(1)| = {solution.v1_residual:.3e}")
    print(f"max interior |-v p' + f| = {solution.transport_residual:.3e}")
    print(f"work: {solution.step_calls} step calls, "
          f"{solution.states_stepped} states stepped, "
          f"{solution.jacobians} Jacobians")
    if solution.z_direct is not None:
        print(f"z* (direct construction) = {solution.z_direct!r}  "
              f"gap = {abs(solution.z_direct - solution.z):.3e}")
    out = _outdir(cfg)
    save_snapshot(State(t=0.0, z=solution.z, c=solution.c, p=solution.p),
                  os.path.join(out, "stationary.snap"),
                  config_hash=config_hash(cfg))
    write_profile_csv(os.path.join(out, "stationary.csv"), solution)
    save_config(cfg, os.path.join(out, "stationary.config"))
    ok = (solution.v1_residual <= args.tol
          and solution.transport_residual <= 100.0 * args.tol)
    return 0 if ok else 1


def cmd_simulate(args):
    cfg = _load(args)
    model = cfg.model()
    grid = Grid(cfg.grid_n)
    chash = config_hash(cfg)

    # the snapshot and the horizon are checked before the reference solve
    if args.resume:
        init, header = load_snapshot(args.resume, expect_n=grid.n)
        start_t, start = init.t, "the snapshot's"
    else:
        start_t, start = 0.0, "the initial time"   # admissible_init's t
    try:
        horizon_steps(cfg.solver, start_t, start)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(cfg)
    stationary = solve_stationary(model, grid, config=cfg.solver,
                                  cross_check=False)

    if args.resume:
        if header["config_hash"] and header["config_hash"] != chash:
            log.warning("resume snapshot was produced under a different "
                        "configuration (hash %s vs %s)",
                        header["config_hash"], chash)
        start_step, out_offset = header["step"], header["output_index"]
        csv_name = "timeseries_resumed.csv"
    else:
        delta = args.delta if args.delta is not None else 0.01
        seed = args.seed if args.seed is not None else 0
        init = admissible_init(stationary, delta, args.shape, seed)
        start_step = out_offset = 0
        csv_name = "timeseries.csv"
    # a resumed run's first output is the snapshot's own: it is neither
    # written again nor saved over the snapshot
    skip = 1 if args.resume else 0

    # the step and output index of the latest output, which a failed run
    # saves with its last healthy state (a run has one only after its
    # first output)
    latest = {}

    def on_output(state, step_index, output_index, record):
        absolute = out_offset + output_index
        latest.update(step=start_step + step_index, output_index=absolute)
        if output_index >= skip and absolute % cfg.snapshot_every == 0:
            save_snapshot(state, os.path.join(out, f"snap_{absolute:06d}.snap"),
                          config_hash=chash, **latest)

    try:
        result = simulate(model, init, grid, cfg.solver, stationary,
                          on_output=on_output)
    except SpheroidError as exc:
        last = getattr(exc, "last_state", None)
        if last is not None:
            save_snapshot(last, os.path.join(out, "emergency.snap"),
                          config_hash=chash, **latest)
            print(f"run aborted: {exc}; last good state saved to emergency.snap",
                  file=sys.stderr)
        else:
            print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    result.records = result.records[skip:]
    write_timeseries_csv(os.path.join(out, csv_name), result)
    print(f"wrote {csv_name}: {len(result.records)} records, "
          f"final t = {result.final_state.t!r}, R = {result.final_state.radius!r}")
    return 0


def cmd_stability(args):
    cfg = _load(args)
    model = cfg.model()
    grid = Grid(cfg.grid_n)
    exp = cfg.experiment
    eps_list = (args.eps,) if args.eps is not None else exp.eps_list
    delta_list = (args.delta,) if args.delta is not None else exp.delta_list
    seeds = (args.seed,) if args.seed is not None else exp.seeds
    report = stability_experiment(model, grid, cfg.solver, eps_list,
                                  delta_list, exp.shapes, seeds)
    write_stability_csv(os.path.join(_outdir(cfg), "stability.csv"), report)
    n_ok = sum(c.status == "ok" for c in report.cells)
    print(f"wrote stability.csv: {len(report.cells)} cells, {n_ok} ran, "
          f"{sum(c.converged for c in report.cells)} converged")
    return 0 if report.all_ran else 1


def cmd_convergence(args):
    cfg = _load(args)
    studies = standard_convergence_suite(cfg.model())
    write_convergence_csv(os.path.join(_outdir(cfg), "convergence.csv"),
                          studies)
    ok = True
    for study in studies:
        threshold = CONVERGENCE_THRESHOLDS[study.kind]
        status = "ok" if (study.conclusive and study.observed_order >= threshold) \
            else "BELOW THRESHOLD" if study.conclusive else "inconclusive"
        if status != "ok":
            ok = False
        orders = ", ".join(f"{o:.2f}" for o in study.orders)
        print(f"{study.kind}: orders [{orders}] (threshold {threshold}) {status}")
    return 0 if ok else 1


def cli(argv=None):
    """Run the CLI on ``argv`` (defaults to sys.argv[1:]); returns exit status."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SpheroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
