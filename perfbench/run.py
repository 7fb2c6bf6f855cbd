"""Benchmark of the `spheroid` package: one workload per invocation.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``trajectory``: one perturbed quasi-static run (``eps=0``, ``dt=0.02``,
  3000 steps, ``delta=0.01``, ``shape="random"`` seeded by ``--seed``) with
  a snapshot every 50 outputs and the time-series CSV written at the end,
  as ``spheroid simulate`` runs it.
* ``stability_matrix``: the 12-cell ``(eps, delta, shape)`` matrix of
  acceptance criterion 5.

Both start from the relaxation-only stationary reference that ``spheroid
simulate`` and ``spheroid stability`` solve on every invocation.

With ``--trace 0`` the run sets up once, then repeats the job until
``--seconds`` have passed (at least once), and reports the end-to-end
metrics: ``setup_s`` (the median over fresh interpreters of importing
`spheroid` and building the model and grid, plus the time of the
stationary reference), ``job_s`` (the median wall time of the job) and
``peak_rss_mb``; the metadata line lists every sample.  With ``--trace 1``
the run solves the reference once untraced, then once more and runs the
job once with the package's public functions wrapped in spans
(``tracer.py``).  It reports per-layer calls, self times and counts, and
the slowdown of the traced reference solve as ``trace.overhead_frac``.
Spans are written to ``perfbench/out/``.

The reference and every job output are checked against tolerances
(``workloads.py``); a failed check is counted in ``failed`` and the run
still reports its timings.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata.  BLAS is pinned
to one thread and the workload runs in this one process.
"""

import os

# pin BLAS before numpy is imported, here and in the set-up interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3   # fresh interpreters timed for the import share of setup_s

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import spheroid, spheroid.output
model = spheroid.default_model()
grid = spheroid.Grid({n})
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class WarningCounter(logging.Handler):
    """Counts the package's warnings instead of printing them."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def import_spheroid():
    if not (SRC / "spheroid" / "__init__.py").is_file():
        fail(f"no spheroid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spheroid
    import spheroid.output  # noqa: F401  (bound before any tracer patches)
    if Path(spheroid.__file__).resolve().parent != SRC / "spheroid":
        fail(f"imported spheroid from {spheroid.__file__}, not from {SRC}")
    return spheroid


def time_fresh_imports(n_grid):
    """Median over fresh interpreters of import + model + grid, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD.format(n=n_grid)],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest():
    """SHA-256 over the package sources, which identifies the code measured
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spheroid").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args):
    import numpy
    import scipy
    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_untraced(sp, job, ctx, seconds, grid_n):
    from workloads import reference, reference_check

    import_s = time_fresh_imports(grid_n)
    model = sp.default_model()
    grid = sp.Grid(grid_n)
    ref, ref_s = timed(reference, sp, model, grid)
    results = [reference_check(sp, ref, grid, ctx.z_star)]
    job_s = []
    started = time.perf_counter()
    while not job_s or time.perf_counter() - started < seconds:
        result, dt = timed(job, sp, model, grid, ref, ctx)
        results.append(result)
        job_s.append(dt)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": import_s + ref_s, "job_s": statistics.median(job_s),
               "peak_rss_mb": rss_mb}
    extra = {"import_s": import_s, "reference_s": ref_s, "job_s_samples": job_s}
    return results, metrics, extra


def run_traced(sp, job, ctx, grid_n, warnings):
    from tracer import Tracer
    from workloads import reference, reference_check

    model = sp.default_model()
    grid = sp.Grid(grid_n)
    _, untraced_s = timed(reference, sp, model, grid)
    tracer = Tracer()
    with tracer.patched():
        warnings.count = 0
        ref, traced_s = timed(reference, sp, model, grid)
        tracer.run_id = 1
        results = [reference_check(sp, ref, grid, ctx.z_star),
                   job(sp, model, grid, ref, ctx)]
    values = tracer.metric_values(
        warnings=warnings.count,
        overhead_frac=(traced_s - untraced_s) / untraced_s)
    extra = {"reference_untraced_s": untraced_s, "reference_traced_s": traced_s,
             "spans": tracer.span_count(), "absent": tracer.absent}
    return results, values, extra, tracer


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    from workloads import GRID_N, WORKLOADS, Context

    args = parse_args(argv, WORKLOADS)
    sp = import_spheroid()
    warnings = WarningCounter()
    log = logging.getLogger("spheroid")
    log.addHandler(warnings)
    log.propagate = False

    reference_data = json.loads((HERE / "reference.json").read_text("utf-8"))
    ctx = Context(seed=args.seed, z_star=reference_data["z_star"],
                  out_dir=str(OUT))
    job = WORKLOADS[args.workload]
    meta = metadata(args)

    if args.trace:
        results, values, extra, tracer = run_traced(sp, job, ctx, GRID_N,
                                                    warnings)
        tracer.write(str(OUT / f"{args.workload}-trace"), {**meta, **extra})
        wanted = spec["per_layer"]
    else:
        results, values, extra = run_untraced(sp, job, ctx, args.seconds,
                                              GRID_N)
        wanted = spec["end_to_end"]
    attempted = sum(r[0] for r in results)
    failed = sum(r[1] for r in results)
    notes = [n for r in results for n in r[2]]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"run produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for note in notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps({"meta": {**meta, **extra, "warnings": warnings.count}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
