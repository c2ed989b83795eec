"""Batch command line: run one job document, print a report.

Exit codes: 0 when the computation succeeds, 1 when the mathematics
refutes the request (a sequence is not regular, a square fails, a
projection is not unital), 2 for malformed or semantically invalid
input or a report that cannot be written, and 3 for an internal error:
an exception that is not an ``AlgebraError`` is reported as one
``error[internal]`` line, so that a crash never reads as a refutation.
Timing appears only in the text output so the JSON report stays
byte-identical across runs.
"""
from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import clifford, conormal, derivations, morava, pairs
from .errors import (
    AlgebraError,
    ConditionIIFails,
    NotCompatible,
    NotInIdeal,
    NotRegular,
    NotUnital,
    NotVerifiedRegular,
    NotWellDefined,
    SemanticError,
)
from .exprs import evaluate
from .ideals import check_condition_ii, decompose_conormal, tor
from .jobio import (
    JobDescription,
    canonical_json,
    element_payload,
    form_payload,
    graded_report_payload,
    module_entry_payload,
    parse_job,
    presentation_payload,
    ring_from_job,
    sequence_from_job,
    target_from_job,
)
from .ring import QuotientRing

MATH_ERRORS = (
    NotRegular,
    NotVerifiedRegular,
    ConditionIIFails,
    NotCompatible,
    NotWellDefined,
    NotUnital,
    NotInIdeal,
)


class JobReport(NamedTuple):
    command: str
    status: int
    results: dict
    warnings: tuple = ()

    def payload(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "results": self.results,
            "warnings": list(self.warnings),
        }


def _scenario_from(doc: dict):
    block, window = doc["scenario"], doc.get("window", {})
    return morava.build_scenario(
        block["p"], block["n"], window=window.get("degree"), laurent=window.get("laurent", 2)
    )


def _spec(doc: dict):
    if "scenario" in doc:
        return _scenario_from(doc).spec
    return sequence_from_job(ring_from_job(doc), doc["sequence"])


def _spec_and_target(doc: dict):
    """The spec and its target ideal, for the commands that read one: a
    scenario job has none."""
    spec = _spec(doc)
    return spec, None if "scenario" in doc else target_from_job(spec.ring, doc)


def algebra_element(cl, text: str):
    """Parse an algebra element: generator names, coefficients, products."""
    index = {name: i for i, name in enumerate(cl.names)}

    def atom(name):
        if name in index:
            return cl.generator(index[name])
        if isinstance(cl.coeff, QuotientRing):
            return cl.scalar(cl.coeff.ring.var(name))
        raise SemanticError("unknown name %r in algebra expression" % (name,))

    def constant(value):
        return cl.scalar(value)

    def power(value, k):
        if k < 0:
            raise SemanticError("negative powers are not defined in the algebra")
        return value**k

    return evaluate(text, atom, constant, power)


def _cmd_presentation(doc):
    spec, target = _spec_and_target(doc)
    pres, _ = clifford.homology_presentation(spec, target)
    return 0, presentation_payload(pres), pres.warnings


def _cmd_cohomology(doc):
    spec = _spec(doc)
    pres = derivations.cohomology_presentation(spec)
    return 0, presentation_payload(pres), pres.warnings


def _cmd_form(doc):
    spec, target = _spec_and_target(doc)
    form = conormal.characteristic_form_diagonal(spec)
    if target is not None:
        form = conormal.base_change_form(form, target)
    return 0, form_payload(form), ()


def _cmd_multiply(doc):
    spec, target = _spec_and_target(doc)
    _, cl = clifford.homology_presentation(spec, target)
    product = cl.one()
    for text in doc["factors"]:
        product = product * algebra_element(cl, text)
    return 0, {"factors": list(doc["factors"]), "product": element_payload(product)}, ()


def _cmd_antipode(doc):
    spec, target = _spec_and_target(doc)
    _, cl = clifford.homology_presentation(spec, target)
    value = algebra_element(cl, doc["element"])
    image = clifford.antipode(value)
    return 0, {"element": element_payload(value), "antipode": element_payload(image)}, ()


def _cmd_derivations(doc):
    spec = _spec(doc)
    module = conormal.conormal_module(spec)
    ext = clifford.CliffordAlgebra(module, conormal.zero_form(module))
    qs, leibniz, certified, rank = derivations.generator_checks(ext)
    duality = derivations.duality_square_commutes(ext, qs)
    ok = certified and rank == 2**ext.n and duality
    results = {
        "rank": ext.n,
        "leibniz": leibniz,
        "squares_zero": certified,
        "anticommute": certified,
        "theta_rank": rank,
        "theta_rank_expected": 2**ext.n,
        "duality_square": duality,
    }
    return (0 if ok else 1), results, ()


def _cmd_check_regular(doc):
    spec = _spec(doc)
    report = spec.regularity
    results = {
        "regular": report.regular,
        "first_failure": report.first_failure,
        "failure_degree": report.failure_degree,
        "checked_up_to": report.checked_up_to,
    }
    if report.reason:
        results["reason"] = report.reason
    return (0 if report.regular else 1), results, ()


def _cmd_tor(doc):
    ring = ring_from_job(doc)
    first, second = (tuple(ring.parse(t) for t in doc[key]) for key in ("first", "second"))
    report = tor(ring, first, second, doc["index"])
    return 0, {"index": doc["index"], "report": graded_report_payload(report)}, ()


def _ideal_lists(ring, doc):
    return [tuple(ring.parse(t) for t in block) for block in doc["ideals"]]


def _cmd_condition_ii(doc):
    ring = ring_from_job(doc)
    ideals = _ideal_lists(ring, doc)
    flags = check_condition_ii(ring, ideals)
    return (0 if all(flags) else 1), {"holds": flags, "all_hold": all(flags)}, ()


def _cmd_decompose(doc):
    ring = ring_from_job(doc)
    ideals = _ideal_lists(ring, doc)
    dec = decompose_conormal(ring, ideals)
    degrees = {}
    for d, entry in sorted(dec.degrees.items()):
        degrees[str(d)] = {
            "module": module_entry_payload(entry.module),
            "summands": [module_entry_payload(s) for s in entry.summands],
            "verified": entry.verified,
        }
    return (0 if dec.verified else 1), {"degrees": degrees, "verified": dec.verified}, ()


def _pair_from_block(ring, block):
    spec, target = sequence_from_job(ring, block["sequence"]), target_from_job(ring, block)
    return pairs.make_pair(spec, target, block.get("multiplicative", False))


def _cmd_naturality(doc):
    ring = ring_from_job(doc)
    source = _pair_from_block(ring, doc["source_pair"])
    target = _pair_from_block(ring, doc["target_pair"])
    morphism = pairs.PairMorphism(source, target)
    report = pairs.naturality_suite(morphism)
    if report.amap is None:
        raise NotCompatible(report.detail("induced-map-exists"))
    results = {
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in report.checks
        ],
        "all_pass": report.all_pass,
        "images": [repr(img) for img in report.amap.images],
    }
    return (0 if report.all_pass else 1), results, ()


def _cmd_scenario(doc):
    sc = _scenario_from(doc)
    pres, algebra = clifford.homology_presentation(sc.spec)
    results = {
        "p": sc.p,
        "n": sc.n,
        "window": sc.window,
        "laurent": sc.laurent,
        "ring": repr(sc.ring),
        "homology": presentation_payload(pres),
        "cohomology": presentation_payload(derivations.cohomology_presentation(sc.spec)),
        "form": form_payload(algebra.form),
    }
    return 0, results, pres.warnings


def run_job(job: JobDescription, window=None, laurent=None) -> JobReport:
    """Dispatch one job to ``_cmd_<command>``; mathematical refutations
    become status-1 reports.

    ``window`` and ``laurent`` override the document's window block; they
    go into a copy of the document, so ``job.data`` is never changed.
    """
    doc = job.data
    overrides = {k: v for k, v in (("degree", window), ("laurent", laurent)) if v is not None}
    if overrides:
        doc = {**doc, "window": {**doc.get("window", {}), **overrides}}
    handler = globals()["_cmd_" + job.command.replace("-", "_")]
    try:
        status, results, warnings = handler(doc)
    except MATH_ERRORS as err:
        return JobReport(
            job.command,
            1,
            {"refuted_by": type(err).__name__, "message": str(err)},
        )
    return JobReport(job.command, status, results, tuple(warnings))


def _render_lines(value, indent=""):
    if isinstance(value, dict):
        lines = []
        for key in value:
            sub = value[key]
            # an empty list or dict stays on its key's line, as [] or {}
            if isinstance(sub, (dict, list)) and sub:
                lines.append("%s%s:" % (indent, key))
                lines.extend(_render_lines(sub, indent + "  "))
            else:
                lines.append("%s%s: %s" % (indent, key, sub))
        return lines
    if isinstance(value, list):
        if not value:
            return ["%s[]" % indent]
        if all(not isinstance(v, (dict, list)) for v in value):
            return ["%s- %s" % (indent, ", ".join(str(v) for v in value))]
        lines = []
        for v in value:
            lines.extend(_render_lines(v, indent + "  "))
        return lines
    return ["%s%s" % (indent, value)]


def render_text(report: JobReport, elapsed=None) -> str:
    lines = ["command: %s" % report.command]
    lines.append("status: %s" % ("ok" if report.status == 0 else "refuted"))
    for w in report.warnings:
        lines.append("warning: %s" % w)
    lines.extend(_render_lines(report.results))
    if elapsed is not None:
        lines.append("elapsed: %.3fs" % elapsed)
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="regquot",
        description="Run one algebra job document and print the report.",
    )
    parser.add_argument("job", help="path to a JSON job document, or - for stdin")
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH", help="also write the JSON report"
    )
    parser.add_argument("--window", type=int, help="override the degree window")
    parser.add_argument("--laurent", type=int, help="override the laurent window")
    ns = parser.parse_args(argv)
    try:
        text = sys.stdin.read() if ns.job == "-" else Path(ns.job).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print("error[IO]: %s" % err, file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        job = parse_job(text)
        report = run_job(job, window=ns.window, laurent=ns.laurent)
    except AlgebraError as err:
        print("error[%s]: %s" % (type(err).__name__, err), file=sys.stderr)
        return 2
    except Exception as err:
        print("error[internal]: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 3
    try:
        print(render_text(report, time.monotonic() - started), flush=True)
        if ns.json_path:
            Path(ns.json_path).write_text(canonical_json(report.payload()))
    except OSError as err:  # a closed stdout too: exit 1 would read as a refutation
        if isinstance(err, BrokenPipeError):  # so the final flush cannot raise
            sys.stdout = open(os.devnull, "w")
        print("error[IO]: %s" % err, file=sys.stderr)
        return 2
    return report.status


# Everything alive once the CLI is imported (modules, classes, functions,
# constant tables) lives until the process exits.  Moving it to the
# collector's permanent generation keeps a job's collections from scanning
# it again, so they cost the same however much the import allocates.
gc.freeze()
