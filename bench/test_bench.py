"""Self-tests of the benchmark's own code.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import ladder  # noqa: E402
import tracer  # noqa: E402


def test_job_documents_are_deterministic_per_seed():
    for workload in ladder.WORKLOADS:
        canonical = ladder.workload_jobs(BENCH.parent, workload, 0)
        for seed in (0, 1, 7):
            first = ladder.workload_jobs(BENCH.parent, workload, seed)
            assert first == ladder.workload_jobs(BENCH.parent, workload, seed)
            assert first.keys() == canonical.keys()
    doc = ladder.canonical_ladder(BENCH.parent)["integral"]["tor1_z_w20"]
    assert ladder.seeded_job("tor1_z_w20", doc, 0) is doc
    variants = {ladder.job_text(ladder.seeded_job("tor1_z_w20", doc, s)) for s in range(1, 9)}
    assert len(variants) > 1


def test_seeded_jobs_negate_and_reorder_only():
    doc = ladder.canonical_ladder(BENCH.parent)["plocal"]["decompose_zp2_w12"]
    for seed in range(1, 6):
        out = ladder.seeded_job("decompose_zp2_w12", doc, seed)
        assert sorted(g["name"] for g in out["ring"]["generators"]) == ["x", "y", "z"]
        assert [block[0].lstrip("-") for block in out["ideals"]] == ["x", "y", "z"]


def test_self_time_of_nested_spans():
    spans = [
        # (id, parent, name, start, end): a(0..10) holds b(1..4) and
        # c(5..9); c holds a nested c(6..8) and d(6.5..7).
        (2, 0, "b", 1.0, 4.0),
        (4, 3, "d", 6.5, 7.0),
        (3, 1, "c", 6.0, 8.0),
        (1, 0, "c", 5.0, 9.0),
        (0, None, "a", 0.0, 10.0),
    ]
    out = tracer.summarize(spans)
    assert out["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert out["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    # the inner c is counted once in total_s, but both have self time
    assert out["c"] == {"calls": 2, "total_s": 4.0, "self_s": 2.0 + 1.5}
    assert out["d"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}


def test_tracer_records_spans_and_restores_originals():
    from regquot import cli, conormal, ideals, linalg, ring
    from regquot.jobio import parse_job

    originals = {
        "kernel_basis": (linalg.kernel_basis, ideals.kernel_basis),
        "normal_form": (ring.normal_form, conormal.normal_form),
        "ideal_context": (ring.ideal_context, ideals.ideal_context),
        "regularity": (ideals._regularity,),
        "init": (linalg.IntLattice.__dict__["__init__"],),
        "solve": (linalg.LocalLattice.__dict__["solve"],),
    }
    tr = tracer.Tracer("job-1").install()
    try:
        assert conormal.normal_form is not originals["normal_form"][0]
        assert conormal.normal_form is ring.normal_form
        job = parse_job('{"command": "tor", "ring": {"base": "Z", "generators": '
                        '[{"name": "x", "degree": 2}]}, "window": {"degree": 4}, '
                        '"first": ["x"], "second": ["x"], "index": 1}')
        cli.run_job(job)
    finally:
        tr.restore()
    names = {s[2] for s in tr.spans}
    assert {"cli.run_job", "ideals.regularity", "linalg.IntLattice"} <= names
    assert tr.counts["scalars.ops"] > 0
    assert tr.lattice_cells > 0 and tr.max_entry_bits > 0
    assert (linalg.kernel_basis, ideals.kernel_basis) == originals["kernel_basis"]
    assert (ring.normal_form, conormal.normal_form) == originals["normal_form"]
    assert (ring.ideal_context, ideals.ideal_context) == originals["ideal_context"]
    assert (ideals._regularity,) == originals["regularity"]
    assert (linalg.IntLattice.__dict__["__init__"],) == originals["init"]
    assert (linalg.LocalLattice.__dict__["solve"],) == originals["solve"]
    assert set(tracer.cache_counts()) == set(tracer.CACHES)
