"""Run one job document in this fresh process and report to the parent.

Usage: ``python3 bench/child.py [JOB_ID SPANS_PATH] < job.json``

The child imports ``regquot`` from the checkout's ``src``, reads and
parses the job from stdin, and notes that moment on the system-wide
monotonic clock so the parent can time the set-up.  It runs the job
through ``regquot.cli.run_job``, renders the canonical JSON report, and
prints one JSON line: the ready time, the job time, its exit status, the
report text and the child's peak resident set size.  With a job id and a
spans path the job runs under the outside-in tracer; the line then also
holds the span summary, counters and cache counts, and the spans are
written to the path.
"""
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def calibrate():
    """Time a fixed piece of pure-Python work on this CPU, in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 12000):
        acc += Fraction(i % 7, i % 5 + 1)
        table[i % 97, i % 13] = acc.numerator & 0xFFFF
    return time.perf_counter() - start


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    from regquot import cli, jobio

    tracer = None
    if argv:
        import tracer as tracing

        tracer = tracing.Tracer(argv[0]).install()
    job = jobio.parse_job(sys.stdin.read())
    ready = time.monotonic()
    before = calibrate()
    start = time.perf_counter()
    report = cli.run_job(job)
    rendered = jobio.canonical_json(report.payload())
    job_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = calibrate()
    out = {
        "ready": ready,
        "job_s": job_s,
        "calib_s": [before, after],
        "status": report.status,
        "report": rendered,
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        tracer.restore()
        out["trace"] = {
            "spans": tracing.summarize(tracer.spans),
            "counts": dict(tracer.counts),
            "caches": tracing.cache_counts(),
            "lattice_cells": tracer.lattice_cells,
            "max_entry_bits": tracer.max_entry_bits,
        }
        tracer.write(argv[1])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
