"""Outside-in tracer: spans around the public functions of each regquot layer.

The tracer changes no file of the program.  It wraps class methods on
their class, and it wraps a free function by replacing *every* ``regquot``
module global that is the original object, because modules bind helpers
such as ``kernel_basis``, ``ideal_context`` and ``normal_form`` through
``from ... import`` and patching only the defining module would miss those
calls.  Each span records its name, start, end and parent span; all spans
of one tracer share its job id.  Spans stay in memory until ``write``.
``restore`` puts every original object back.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, attribute path) of each timed boundary.  A class
# is named by its ``__init__``, so its span covers the construction.
TIMED = {
    "cli.run_job": [("cli", "run_job")],
    "jobio.parse_job": [("jobio", "parse_job")],
    "jobio.canonical_json": [("jobio", "canonical_json")],
    "morava.build_scenario": [("morava", "build_scenario")],
    "conormal.QuotientRingSpec": [("conormal", "QuotientRingSpec.__init__")],
    "conormal.characteristic_form_diagonal": [("conormal", "characteristic_form_diagonal")],
    "ideals.regularity": [("ideals", "_regularity")],
    "ideals.homology_entry": [("ideals", "KoszulComplex.homology_entry")],
    "ideals.validate_squares": [("ideals", "KoszulComplex.validate_squares")],
    "ideals.quotient_invariants": [("ideals", "quotient_invariants")],
    "ideals.decompose_conormal": [("ideals", "decompose_conormal")],
    "ring.IdealContext": [("ring", "IdealContext.__init__")],
    "ring.normal_form": [("ring", "normal_form")],
    "linalg.hnf_transform": [("linalg", "hnf_transform")],
    "linalg.snf_invariants": [("linalg", "snf_invariants")],
    "linalg.kernel_basis": [("linalg", "kernel_basis")],
    "linalg.IntLattice": [("linalg", "IntLattice.__init__")],
    "linalg.IntLattice.solve": [("linalg", "IntLattice.solve")],
    "linalg.IntLattice.reduce": [("linalg", "IntLattice.reduce")],
    "linalg.LocalLattice": [("linalg", "LocalLattice.__init__")],
    "linalg.LocalLattice.solve": [("linalg", "LocalLattice.solve")],
    "linalg.LocalLattice.reduce": [("linalg", "LocalLattice.reduce")],
    "linalg.cleared": [("linalg", "cleared_rows"), ("linalg", "cleared_matrix")],
    "clifford.word_product": [("clifford", "CliffordAlgebra.word_product")],
    "clifford.element_mul": [("clifford", "CliffordElement.__mul__")],
    "clifford.homology_presentation": [("clifford", "homology_presentation")],
    "derivations.operator_matrix": [("derivations", "operator_matrix")],
    "derivations.compose": [("derivations", "compose")],
    "derivations.leibniz_check": [("derivations", "leibniz_check")],
    "derivations.theta_rank": [("derivations", "theta_rank")],
    "derivations.cohomology_presentation": [("derivations", "cohomology_presentation")],
    "pairs.naturality_suite": [("pairs", "naturality_suite")],
}

# counter name -> boundaries that are counted but not timed: they run far
# too often for a span each.
COUNTED = {
    "scalars.ops": [
        ("scalars", "BaseRing.add"),
        ("scalars", "BaseRing.mul"),
        ("scalars", "BaseRing.normalize"),
    ],
}

# Lattice constructors whose arguments feed the computed shape statistics.
LATTICES = ("linalg.IntLattice", "linalg.LocalLattice")

# Span that covers the tracer's own work inside a traced call, so that the
# work is not charged to the caller's self time.
STATS_SPAN = "trace.stats"

# The program's module-level caches, read after each traced job.
CACHES = {
    "ring.ctx_cache": ("ring", "_cached_context"),
    "ideals.reg_cache": ("ideals", "_regularity"),
    "ring.exps_cache": ("ring", "_degree_exps"),
}


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _row_bits(row) -> int:
    """Largest bit size of a numerator or denominator in ``row``."""
    if set(map(type, row)) <= {int}:
        return max(max(row, default=0).bit_length(), min(row, default=0).bit_length())
    return max(map(_entry_bits, row), default=0)


class Tracer:
    """Spans and counters of one job, recorded from outside the program."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []  # (span id, parent id or None, name, start, end)
        self.counts = Counter()
        self.lattice_cells = 0
        self.max_entry_bits = 0
        self._stack = []
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------

    def timed(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _lattice_stats(self, rows, width):
        self.lattice_cells += len(rows) * width
        bits = max(map(_row_bits, rows), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def _with_stats(self, fn):
        stats = self.timed(STATS_SPAN, self._lattice_stats)

        def wrapper(obj, rows, width, *rest):
            stats(rows, width)
            return fn(obj, rows, width, *rest)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing and restoring --------------------------------------

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, modules, module, path, make):
        owner = modules["regquot." + module]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        new = make(original)
        if classes:
            self._replace(owner, attr, new)
            return
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, new)

    def install(self):
        """Wrap every boundary of ``TIMED`` and ``COUNTED``; regquot must be imported."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "regquot" or name.startswith("regquot."))
        }
        for name, targets in TIMED.items():
            for module, path in targets:
                if name in LATTICES:
                    make = lambda fn, name=name: self._with_stats(self.timed(name, fn))
                else:
                    make = lambda fn, name=name: self.timed(name, fn)
                self._wrap(modules, module, path, make)
        for name, targets in COUNTED.items():
            for module, path in targets:
                self._wrap(modules, module, path, lambda fn, name=name: self.counted(name, fn))
        return self

    def restore(self):
        """Put back every original object, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines: job id, span id, parent, name, start, end."""
        with open(path, "w") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps([self.job_id, sid, parent, name, start, end]) + "\n")


def summarize(spans) -> dict:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    ``self_s`` is each span's duration minus the time its child spans
    cover.  ``total_s`` counts the time covered by spans of that name once,
    even where such a span runs inside another of the same name.
    """
    parent_of = {}
    name_of = {}
    covered = Counter()
    for sid, parent, name, start, end in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for sid, parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[sid]
        up = parent
        while up is not None and name_of[up] != name:
            up = parent_of[up]
        if up is None:
            entry["total_s"] += end - start
    return out


def cache_counts() -> dict:
    """``hits`` and ``misses`` of each cache in ``CACHES``, read from ``cache_info``."""
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(sys.modules["regquot." + module], attr).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses}
    return out
