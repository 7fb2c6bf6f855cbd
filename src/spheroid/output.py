"""CSV writers with round-trip-exact float formatting.

Every file begins with a header row naming each column; floats are
written in Python's shortest round-trip representation so repeated runs
produce byte-identical files and oracle comparisons can be exact.
"""

from dataclasses import fields

from .records import DeviationRecord

# one column per field of the record, in order
TIMESERIES_COLUMNS = tuple(f.name for f in fields(DeviationRecord))


def fmt(x):
    return repr(float(x))


def timeseries_rows(result):
    """Yield header + data rows for a simulation result: each row is one
    record's fields in :data:`TIMESERIES_COLUMNS` order."""
    yield ",".join(TIMESERIES_COLUMNS)
    for rec in result.records:
        yield ",".join(fmt(getattr(rec, k)) for k in TIMESERIES_COLUMNS)


def write_timeseries_csv(path, result):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in timeseries_rows(result):
            fh.write(row + "\n")


STABILITY_COLUMNS = ("eps", "delta", "shape", "seed", "status", "converged",
                     "crossing_time")


def write_stability_csv(path, report):
    norm_names = DeviationRecord.NORM_FIELDS
    columns = list(STABILITY_COLUMNS)
    for name in norm_names:
        columns += [f"mu_{name}", f"C_{name}"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cell in report.cells:
            row = [fmt(cell.eps), fmt(cell.delta), cell.shape, str(cell.seed),
                   cell.status.replace(",", ";"), str(int(cell.converged)),
                   fmt(cell.crossing_time)]
            for name in norm_names:
                fit = cell.fits.get(name)
                row += ["", ""] if fit is None else [fmt(fit.mu), fmt(fit.prefactor)]
            fh.write(",".join(row) + "\n")


def write_convergence_csv(path, studies):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("kind,level_coarse,level_fine,diff,observed_order\n")
        for study in studies:
            for (lc, lf), d, o in zip(zip(study.levels[:-1], study.levels[1:]),
                                      study.diffs, study.orders):
                fh.write(f"{study.kind},{lc},{lf},{fmt(d)},{fmt(o)}\n")


def write_profile_csv(path, solution):
    """Stationary profiles: radius, nutrient, fraction, velocity."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,c,p,v\n")
        for i in range(solution.grid.n):
            fh.write(",".join(fmt(x) for x in
                              (solution.grid.r[i], solution.c[i],
                               solution.p[i], solution.v[i])) + "\n")
