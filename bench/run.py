"""Job-ladder benchmark for regquot.

Usage::

    python3 bench/run.py --workload plocal --seed 0 --seconds 30 --trace 0
    for w in plocal integral exterior; do python3 bench/run.py --workload $w; done
    PYTHONPATH=src python3 -m pytest -q bench      # the benchmark's self-tests

One benchmark process drives a closed loop with one client: it runs the
workload's jobs (see ``ladder.py``) one at a time, each in its own fresh
Python process, pass after pass, until ``--seconds`` have elapsed.  A
fresh process per job is how the ``regquot`` command is used, and it keeps
the program's module-level ``lru_cache`` caches from turning a repeated
job into cache lookups.

Every report is checked: the child must exit 0, and the canonical JSON
report must match the report schema and the sha256 in ``golden.json``.

With ``--trace 0`` the run prints the end-to-end metrics:

* ``wall_s`` -- sum over jobs of the median time from ``run_job`` called
  to canonical report rendered;
* ``job_geomean_s`` -- geometric mean of the per-job medians;
* ``setup_s`` -- median over all children of the time from process start
  to ``regquot`` imported and job parsed;
* ``peak_rss_mb`` -- largest peak resident set size of any child.

Times are scaled to a reference machine speed measured in each child
(see ``REF_CALIB_S``); failed jobs count in ``error_rate``, printed with
the metrics.

With ``--trace 1`` it alternates untraced passes with passes under the
outside-in tracer (``tracer.py``) and prints the per-layer metrics, each
summed over jobs from per-job medians, and ``trace.overhead_frac``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the Python
version, commit, ``nproc``, seed, job document digests and every repeat
time is written under ``.bench_runs/`` in the checkout, and with
``--trace 1`` the spans of each job's last traced repeat are written there
too.

``--write-golden`` runs every job of the canonical ladder once and
records the sha256 of each report in ``golden.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import ladder
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
SCHEMA = ROOT / "src" / "regquot" / "schema" / "job_report.schema.json"
RUNS = ROOT / ".bench_runs"

# A job that needs longer than this is killed and counted as failed, and
# no child starts after RUN_LIMIT_S, so a run always ends within 180 s.
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0

# On a shared machine the speed of one process can differ from the next by
# up to 2x.  On a shared 2-vCPU virtual machine with Python 3.11 that put
# the interquartile spread of raw wall_s across runs at 0.08-0.29 of its
# median, depending on the hour.  Each child therefore times a fixed
# calibration loop before and after its job, and its job and set-up times
# are reported at the speed where that loop takes REF_CALIB_S seconds:
# time * REF_CALIB_S / mean(calibration).  In the same runs that spread
# fell to 0.02-0.09.  The raw times are kept in the run record, and the raw
# wall_s is printed as raw_wall_s.
REF_CALIB_S = 0.050

END_TO_END = {
    "wall_s": "s",
    "job_geomean_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from the span summary: span name -> fields.
SPAN_METRICS = {
    "cli.run_job": ("self_s",),
    "jobio.parse_job": ("total_s",),
    "jobio.canonical_json": ("total_s",),
    "morava.build_scenario": ("total_s",),
    "conormal.QuotientRingSpec": ("total_s",),
    "conormal.characteristic_form_diagonal": ("total_s",),
    "ideals.regularity": ("calls", "total_s", "self_s"),
    "ideals.homology_entry": ("calls", "self_s"),
    "ideals.validate_squares": ("self_s",),
    "ideals.quotient_invariants": ("self_s",),
    "ideals.decompose_conormal": ("self_s",),
    "ring.IdealContext": ("calls", "self_s"),
    "ring.normal_form": ("calls", "self_s"),
    "linalg.hnf_transform": ("calls", "self_s"),
    "linalg.snf_invariants": ("calls", "self_s"),
    "linalg.kernel_basis": ("self_s",),
    "linalg.IntLattice": ("calls", "self_s"),
    "linalg.IntLattice.solve": ("calls", "self_s"),
    "linalg.IntLattice.reduce": ("calls", "self_s"),
    "linalg.LocalLattice": ("calls", "self_s"),
    "linalg.LocalLattice.solve": ("calls", "self_s"),
    "linalg.LocalLattice.reduce": ("calls", "self_s"),
    "linalg.cleared": ("self_s",),
    "clifford.word_product": ("calls", "self_s"),
    "clifford.element_mul": ("calls", "self_s"),
    "clifford.homology_presentation": ("total_s",),
    "derivations.operator_matrix": ("calls", "self_s"),
    "derivations.compose": ("calls",),
    "derivations.leibniz_check": ("self_s",),
    "derivations.theta_rank": ("total_s",),
    "derivations.cohomology_presentation": ("self_s",),
    "pairs.naturality_suite": ("total_s",),
}

FIELD_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}

# Derived from the lattice constructors' arguments, not measured inside
# the program.
COMPUTED = {"linalg.lattice_cells": "count", "linalg.max_entry_bits": "bits"}


@dataclass
class Child:
    """Outcome of one job in one fresh process; ``error`` is None on success."""

    name: str
    error: str | None = None
    setup_s: float = 0.0
    job_s: float = 0.0
    calib_s: tuple = ()
    maxrss_kb: int = 0
    report: str = ""
    status: int | None = None
    trace: dict | None = None


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(name, text, deadline, spans_path=None):
    """Run one job in a fresh process; ``deadline`` is a perf_counter time."""
    argv = [sys.executable, str(BENCH / "child.py")]
    if spans_path is not None:
        argv += [name, str(spans_path)]
    start = time.monotonic()
    timeout = max(0.0, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
    with subprocess.Popen(
        argv,
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(text, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Child(name, error="timed out")
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        return Child(name, error="exit %s: %s" % (proc.returncode, err.strip()[-500:]))
    result = json.loads(out.splitlines()[-1])
    return Child(
        name,
        setup_s=result["ready"] - start,
        job_s=result["job_s"],
        calib_s=tuple(result["calib_s"]),
        maxrss_kb=result["maxrss_kb"],
        report=result["report"],
        status=result["status"],
        trace=result.get("trace"),
    )


def check_report(child, golden, validator):
    """Mark ``child`` failed if its report breaks the schema or the golden digest."""
    if child.error is not None:
        return
    try:
        validator.validate(json.loads(child.report))
    except (ValueError, jsonschema.ValidationError) as err:
        child.error = "report fails the schema: %s" % (err,)
        return
    digest = ladder.sha256(child.report)
    if digest != golden.get(child.name):
        child.error = "report sha256 %s differs from golden %s" % (digest, golden.get(child.name))


def median_by_job(children, key):
    """Job name -> median of ``key`` over the successful children of that job."""
    values = {}
    for c in children:
        if c.error is None:
            values.setdefault(c.name, []).append(key(c))
    return {name: statistics.median(v) for name, v in values.items()}


def at_reference_speed(child, seconds):
    """``seconds`` measured in ``child``, scaled to the reference speed (see REF_CALIB_S)."""
    return seconds * REF_CALIB_S / statistics.fmean(child.calib_s)


def scaled_job_s(child):
    return at_reference_speed(child, child.job_s)


def end_to_end(children):
    job = median_by_job(children, scaled_job_s)
    ok = [c for c in children if c.error is None]
    return {
        "wall_s": sum(job.values()),
        "job_geomean_s": math.exp(statistics.fmean(math.log(v) for v in job.values())),
        "setup_s": statistics.median(at_reference_speed(c, c.setup_s) for c in ok),
        "peak_rss_mb": max(c.maxrss_kb for c in ok) / 1024.0,
    }


def per_layer(untraced, traced):
    """Per-layer metrics from traced children; overhead against untraced ones."""
    metrics = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            per_job = median_by_job(
                traced, lambda c: c.trace["spans"].get(span, {}).get(field, 0)
            )
            metrics["%s.%s" % (span, field)] = (sum(per_job.values()), FIELD_UNITS[field])
    ops = median_by_job(traced, lambda c: c.trace["counts"].get("scalars.ops", 0))
    metrics["scalars.ops"] = (sum(ops.values()), "count")
    for cache in tracer.CACHES:
        hits = sum(median_by_job(traced, lambda c: c.trace["caches"][cache]["hits"]).values())
        misses = sum(median_by_job(traced, lambda c: c.trace["caches"][cache]["misses"]).values())
        metrics[cache + ".hits"] = (hits, "count")
        metrics[cache + ".misses"] = (misses, "count")
        metrics[cache + ".hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    cells = median_by_job(traced, lambda c: c.trace["lattice_cells"])
    metrics["linalg.lattice_cells"] = (sum(cells.values()), "count")
    bits = median_by_job(traced, lambda c: c.trace["max_entry_bits"])
    metrics["linalg.max_entry_bits"] = (max(bits.values(), default=0), "bits")
    plain = sum(median_by_job(untraced, scaled_job_s).values())
    with_trace = sum(median_by_job(traced, scaled_job_s).values())
    metrics["trace.overhead_frac"] = ((with_trace - plain) / plain, "ratio")
    return metrics


def run_workload(workload, seed, seconds, trace):
    jobs = ladder.workload_jobs(ROOT, workload, seed)
    golden = json.loads(GOLDEN.read_text())["reports"]
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
    spans_dir = RUNS / ("spans-%s-seed%d" % (workload, seed))
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    begin = time.perf_counter()
    limit = begin + RUN_LIMIT_S
    untraced, traced = [], []
    passes = 0
    while True:
        for traced_pass in ((False, True) if trace else (False,)):
            for name, text in jobs.items():
                if time.perf_counter() >= limit:
                    child = Child(name, error="run time limit reached before the job started")
                else:
                    spans = spans_dir / (name + ".jsonl") if traced_pass else None
                    child = run_child(name, text, limit, spans)
                    check_report(child, golden, validator)
                (traced if traced_pass else untraced).append(child)
        passes += 1
        if time.perf_counter() - begin >= seconds or time.perf_counter() >= limit:
            break
    children = untraced + traced
    failed = [c for c in children if c.error is not None]
    if trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(untraced).items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "python": platform.python_version(),
        "commit": commit_of(ROOT),
        "nproc": os.cpu_count(),
        "job_sha256": {name: ladder.sha256(text) for name, text in jobs.items()},
        "repeats": {
            name: {
                "job_s": [c.job_s for c in untraced if c.name == name],
                "setup_s": [c.setup_s for c in untraced if c.name == name],
                "calib_s": [c.calib_s for c in untraced if c.name == name],
                "traced_job_s": [c.job_s for c in traced if c.name == name],
            }
            for name in jobs
        },
        "failures": [{"job": c.name, "error": c.error} for c in failed],
        "error_rate": len(failed) / len(children),
        "raw_wall_s": sum(median_by_job(untraced, lambda c: c.job_s).values()),
        "computed": sorted(COMPUTED),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    path = RUNS / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record, children, failed, path


def write_golden():
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
    reports = {}
    for workload in ladder.WORKLOADS:
        for name, text in ladder.workload_jobs(ROOT, workload, 0).items():
            child = run_child(name, text, time.perf_counter() + JOB_TIMEOUT_S)
            if child.error is not None or child.status != 0:
                sys.exit("%s: %s" % (name, child.error or "status %s" % child.status))
            validator.validate(json.loads(child.report))
            reports[name] = ladder.sha256(child.report)
    GOLDEN.write_text(
        json.dumps(
            {
                "about": "sha256 of the seed-0 canonical JSON report of each ladder job; "
                "every seed must reproduce it byte for byte",
                "reports": reports,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ladder.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "regquot" / "cli.py").is_file():
        print("error: no regquot sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if ns.write_golden:
        write_golden()
        return 0
    if ns.workload is None:
        parser.error("--workload is required")
    record, children, failed, path = run_workload(ns.workload, ns.seed, ns.seconds, ns.trace)
    print("workload %s  seed %d  trace %d  passes %d  commit %s  python %s  nproc %s" % (
        ns.workload, ns.seed, ns.trace, record["passes"], record["commit"],
        record["python"], record["nproc"]))
    for name, digest in record["job_sha256"].items():
        times = record["repeats"][name]["job_s"]
        print("  job %-20s document sha256 %s  %d repeats" % (name, digest, len(times)))
    for name, m in record["metrics"].items():
        label = " (computed)" if name in COMPUTED else ""
        print("  %-42s %14.6g %s%s" % (name, m["value"], m["unit"], label))
    print("  %-42s %14.6g s (unscaled job times)" % ("raw_wall_s", record["raw_wall_s"]))
    print("  %-42s %14.6g ratio (%d of %d jobs failed)" % (
        "error_rate", record["error_rate"], len(failed), len(children)))
    for f in record["failures"]:
        print("  FAILED %s: %s" % (f["job"], f["error"]))
    print("  run record: %s" % path.relative_to(ROOT))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
