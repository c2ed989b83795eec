"""The job ladder: the job documents of each benchmark workload.

Each workload is a list of named job documents.  Jobs built on a ``ring``
block depend on the workload seed: the seed permutes the order in which
the ring's generators are declared and negates a seeded subset of them in
the job's sequence or ideals (a diagonal unimodular substitution such as
``x, -y, z``).  The ideals, and so the canonical report bytes, do not
change; the monomial order and the signs of the rows the engine works on
do.  Off-diagonal substitutions such as ``x+y, y, z-y`` would also keep
the reports, but they make rows denser and change the work by up to 2x
from seed to seed, which would swamp the run-to-run spread.  Seed 0 is
the identity: the canonical ladder.  Scenario jobs and the bundled
``jobs/*.job`` documents do not depend on the seed.

Why each workload exists:

* ``plocal`` -- Z_(p) jobs.  Their time goes to ``linalg.LocalLattice``
  and the ``cleared_*`` denominator clearing, and regularity checks build
  hundreds of ideal contexts: the mechanism fraction-free p-local
  arithmetic would replace.  K(4) at p=2 (about 21 s alone) is left out.
* ``integral`` -- the same ``tor``/``decompose`` shapes over Z and F_3.
  They use only the integer HNF/SNF path (with ``modulus*I`` padding rows
  on F_3), so they exercise a per-ring lattice backend and bypass the
  p-local one.
* ``exterior`` -- F_2 ``cohomology``/``derivations`` and small scenario,
  ``multiply`` and bundled jobs.  Dense 2^n x 2^n derivation and Clifford
  tables dominate, and the ring layer is read (``normal_form`` on cached
  contexts) rather than built.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("plocal", "integral", "exterior")


def _ring(base, names):
    return {
        "base": base,
        "generators": [{"name": n, "degree": 2} for n in names],
    }


def _scenario(p, n):
    return {"command": "scenario", "scenario": {"p": p, "n": n}}


def _tor(base, window):
    return {
        "command": "tor",
        "ring": _ring(base, ["x", "y", "z"]),
        "window": {"degree": window},
        "first": ["x", "y", "z"],
        "second": ["x"],
        "index": 1,
    }


def _decompose(base, window):
    return {
        "command": "decompose",
        "ring": _ring(base, ["x", "y", "z"]),
        "window": {"degree": window},
        "ideals": [["x"], ["y"], ["z"]],
    }


def _exterior(command, rank):
    names = ["x%d" % i for i in range(1, rank + 1)]
    return {
        "command": command,
        "ring": _ring("F2", names),
        "window": {"degree": 4},
        "sequence": list(names),
    }


def canonical_ladder(root: Path) -> dict:
    """Seed-0 job documents of every workload, keyed by workload then job."""
    jobs_dir = root / "jobs"
    return {
        "plocal": {
            "scenario_k3_p2": _scenario(2, 3),
            "scenario_k3_p3": _scenario(3, 3),
            "tor1_zp2_w16": _tor("Z_(2)", 16),
            "decompose_zp2_w12": _decompose("Z_(2)", 12),
        },
        "integral": {
            "tor1_z_w20": _tor("Z", 20),
            "tor1_f3_w20": _tor("F3", 20),
            "decompose_z_w12": _decompose("Z", 12),
            "decompose_f3_w12": _decompose("F3", 12),
        },
        "exterior": {
            "cohomology_f2_r6": _exterior("cohomology", 6),
            "derivations_f2_r4": _exterior("derivations", 4),
            "scenario_k2_p2": _scenario(2, 2),
            "multiply_k3_p2": dict(
                _scenario(2, 3), command="multiply", factors=["a0", "a1", "a2", "a2"]
            ),
            "bundled_k1_p2": json.loads((jobs_dir / "k1_p2.job").read_text()),
            "bundled_exa": json.loads((jobs_dir / "exa.job").read_text()),
        },
    }


def seeded_job(name: str, doc: dict, seed: int) -> dict:
    """The job document ``doc`` as the workload seed ``seed`` presents it.

    The seed shuffles the declared generator order and negates a seeded
    subset of the generators wherever the sequence, ``first`` or ``ideals``
    name them.  Both are unimodular changes of basis that keep every row
    equally dense.
    """
    if seed == 0 or "ring" not in doc or not doc["ring"].get("generators"):
        return doc
    rng = random.Random("%s:%d" % (name, seed))
    doc = json.loads(json.dumps(doc))
    gens = doc["ring"]["generators"]
    rng.shuffle(gens)
    sign = {g["name"]: rng.choice(("", "-")) for g in gens}
    for key in ("sequence", "first"):
        if key in doc:
            doc[key] = [sign[t] + t for t in doc[key]]
    if "ideals" in doc:
        doc["ideals"] = [[sign[t] + t for t in block] for block in doc["ideals"]]
    return doc


def job_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def workload_jobs(root: Path, workload: str, seed: int) -> dict:
    """Job name -> job document text for one workload and seed."""
    ladder = canonical_ladder(root)[workload]
    return {name: job_text(seeded_job(name, doc, seed)) for name, doc in ladder.items()}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
