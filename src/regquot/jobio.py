"""Job documents for the batch interface.

A job is a single JSON object with a ``command`` plus the blocks that
command reads, which ``COMMANDS`` names and ``parse_job`` alone checks: a
``ring`` (base, generators, optional relations) and a ``sequence`` of
element expressions with optional obstructions, or a named ``scenario``,
and the command's own fields; an optional ``target`` ideal and ``window``
block may join them.  Reports are rendered to canonical JSON with sorted
keys so identical inputs produce identical bytes; timing never enters the
JSON form.
"""
from __future__ import annotations

import gc
import json
import re
import sys
from types import ModuleType
from typing import NamedTuple

from .errors import ParseError, SemanticError
from .ring import GradedRing, Generator, QuotientRing
from .scalars import BaseRing

# The one command table: command -> (modules, blocks).  The modules are the
# algebra modules its handler, cli._cmd_<command> with - read as _, runs past
# the ring core (a scenario block also runs morava); the package registers
# them unexecuted, and parse_job executes a job's own, and no other, before
# it runs.  The blocks are the top-level fields the handler reads, which
# parse_job requires; a scenario block stands in for the ring and sequence
# (_SPEC), as cli._spec_and_target reads it first.
_SPEC = ("ring", "sequence")
COMMANDS = {
    "presentation": (("clifford",), _SPEC),
    "cohomology": (("derivations",), _SPEC),
    "form": (("conormal",), _SPEC),
    "multiply": (("clifford",), _SPEC + ("factors",)),
    "antipode": (("clifford",), _SPEC + ("element",)),
    "derivations": (("derivations",), _SPEC),
    "check-regular": (("conormal",), _SPEC),
    "tor": ((), ("ring", "first", "second", "index")),
    "condition-ii": ((), ("ring", "ideals")),
    "decompose": ((), ("ring", "ideals")),
    "naturality": (("pairs",), ("ring", "source_pair", "target_pair")),
    "scenario": (("morava",), ("scenario",)),
}

_BASE_PATTERNS = (
    (re.compile(r"^Z$"), lambda m: BaseRing.integers()),
    (re.compile(r"^F(\d+)$"), lambda m: BaseRing.prime_field(int(m.group(1)))),
    (re.compile(r"^Z/(\d+)$"), lambda m: BaseRing.integers_mod(int(m.group(1)))),
    (
        re.compile(r"^Z_\((\d+)\)$"),
        lambda m: BaseRing.integers_localized(int(m.group(1))),
    ),
)


def base_ring_from_name(name) -> BaseRing:
    if not isinstance(name, str):
        raise SemanticError("base ring name must be a string")
    for pattern, build in _BASE_PATTERNS:
        m = pattern.match(name)
        if m:
            return build(m)
    raise SemanticError(
        "unknown base ring %r (expected Z, F<p>, Z/<m> or Z_(<p>))" % (name,)
    )


class JobDescription(NamedTuple):
    command: str
    data: dict

    def render(self) -> str:
        return canonical_json(self.data)


def _is_int(value) -> bool:
    """Whether ``value`` is a JSON integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_expressions(value, key: str, entries: bool = False) -> None:
    """``value``, the field ``key`` when present, must be a list of
    expression strings.

    With ``entries`` the list may also hold sequence entry objects
    ``{"element": ..., "obstruction": ...}`` with expression strings (an
    obstruction may also be absent, null or 0).
    """
    if value is None:
        return
    if not isinstance(value, list):
        raise SemanticError("%s must be a list of expressions" % key)
    for item in value:
        if entries and isinstance(item, dict):
            obstruction = item.get("obstruction")
            if not isinstance(item.get("element"), str) or not (
                obstruction is None
                or isinstance(obstruction, str)
                or (_is_int(obstruction) and obstruction == 0)
            ):
                raise SemanticError(
                    "%s entries need an element expression string and an "
                    "optional obstruction expression string" % key
                )
        elif not isinstance(item, str):
            raise SemanticError(
                "%s entries must be expression strings, got %s"
                % (key, json.dumps(item))
            )


def parse_job(text: str) -> JobDescription:
    """Parse and check one job document, the one place its shape is checked.

    Each field that commands read is type checked when present: expression
    lists must hold strings (``sequence`` also entry objects), ``factors``
    must not be empty, ``ideals`` must be a list of such lists, ``element``
    a string, each pair an object with a ``sequence`` and a ``target``,
    integers JSON integers, not booleans, and ``invertible`` and
    ``multiplicative`` JSON booleans.  Then each block that ``COMMANDS``
    names must be present.  Only then are the job's algebra modules
    executed, so a malformed document is refused before any module runs.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno)
    except RecursionError:
        raise ParseError("job document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("job document must be a JSON object")
    command = doc.get("command")
    if command is None:
        raise SemanticError("job is missing the command field")
    if not isinstance(command, str) or command not in COMMANDS:
        raise SemanticError(
            "unknown command %r (expected one of %s)" % (command, ", ".join(COMMANDS))
        )
    window = doc.get("window", {})
    if not isinstance(window, dict):
        raise SemanticError("window block must be an object")
    for key in ("degree", "laurent"):
        if key in window and (not _is_int(window[key]) or window[key] < 0):
            raise SemanticError("window %s must be a non-negative integer" % key)
    ring = doc.get("ring")
    if ring is not None:
        if not isinstance(ring, dict) or "base" not in ring:
            raise SemanticError("ring block needs a base field")
        base_ring_from_name(ring["base"])
        generators = ring.get("generators", [])
        if not isinstance(generators, list):
            raise SemanticError("ring generators must be a list")
        for gen in generators:
            if not isinstance(gen, dict) or "name" not in gen or "degree" not in gen:
                raise SemanticError("each generator needs a name and a degree")
            if not isinstance(gen["name"], str) or not gen["name"].isidentifier():
                raise SemanticError("generator name %r is not an identifier" % gen["name"])
            if not _is_int(gen["degree"]) or gen["degree"] % 2 or gen["degree"] < 0:
                raise SemanticError(
                    "generator %s has degree %r; degrees must be even and >= 0"
                    % (gen["name"], gen["degree"])
                )
            if not isinstance(gen.get("invertible", False), bool):
                raise SemanticError(
                    "generator %s: invertible must be true or false" % gen["name"]
                )
    if "scenario" in doc:
        scenario = doc["scenario"]
        if not isinstance(scenario, dict):
            raise SemanticError("scenario block must be an object")
        for key in ("p", "n"):
            if not _is_int(scenario.get(key)):
                raise SemanticError("scenario needs integer p and n")
    if "index" in doc and not _is_int(doc["index"]):
        raise SemanticError("index must be an integer")
    if ring is not None:
        _check_expressions(ring.get("relations"), "relations")
    _check_expressions(doc.get("sequence"), "sequence", entries=True)
    for key in ("first", "second", "factors", "target"):
        _check_expressions(doc.get(key), key)
    if doc.get("factors") == []:
        raise SemanticError("factors must not be empty")
    if not isinstance(doc.get("element", ""), str):
        raise SemanticError("element must be an expression string")
    ideals = doc.get("ideals")
    if ideals is not None:
        if not isinstance(ideals, list) or not all(isinstance(b, list) for b in ideals):
            raise SemanticError("ideals must be a list of expression lists")
        for block in ideals:
            _check_expressions(block, "ideals")
    for key in ("source_pair", "target_pair"):
        pair = doc.get(key)
        if pair is None:
            continue
        if not isinstance(pair, dict) or None in (pair.get("sequence"), pair.get("target")):
            raise SemanticError("%s must be an object with a sequence and a target" % key)
        _check_expressions(pair["sequence"], "sequence", entries=True)
        _check_expressions(pair["target"], "target")
        if not isinstance(pair.get("multiplicative", False), bool):
            raise SemanticError("%s: multiplicative must be true or false" % key)
    modules, blocks = COMMANDS[command]
    if "scenario" in doc:
        modules += ("morava",)
        if blocks[:2] == _SPEC:
            blocks = blocks[2:]
    for block in blocks:
        if doc.get(block) is None:
            raise SemanticError("%s needs %s" % (command, block))
    _execute(modules)
    return JobDescription(command, doc)


def _execute(names) -> None:
    """Execute the deferred modules ``names`` that have not run yet.

    A module ``LazyLoader`` registered executes on its first attribute
    read and is a plain ``ModuleType`` from then on.  As at the end of the
    CLI import, what the modules built moves to the collector's permanent
    generation, so the job's collections never scan it.
    """
    executed = False
    for name in names:
        module = sys.modules["%s.%s" % (__package__, name)]
        if type(module) is not ModuleType:
            module.__name__  # the first attribute read executes it
            executed = True
    if executed:
        gc.freeze()


def ring_from_job(doc: dict) -> GradedRing:
    block = doc["ring"]
    base = base_ring_from_name(block["base"])
    gens = [
        Generator(g["name"], g["degree"], g.get("invertible", False))
        for g in block.get("generators", ())
    ]
    window = doc.get("window", {})
    degree, laur = window.get("degree", 8), window.get("laurent", 2)
    ring = GradedRing(base, gens, degree_window=degree, laurent_window=laur)
    relations = block.get("relations", ())
    if relations:
        parsed = [ring.parse(r) for r in relations]
        ring = GradedRing(
            base, gens, degree_window=degree, laurent_window=laur, relations=parsed
        )
    return ring


def sequence_from_job(ring: GradedRing, entries):
    from .conormal import ProductToken, QuotientRingSpec

    tokens = []
    for item in entries:
        if isinstance(item, str):
            item = {"element": item}
        x = ring.parse(item["element"])
        obs = item.get("obstruction")
        tokens.append(ProductToken(x, None if obs in (None, 0, "0") else ring.parse(obs)))
    return QuotientRingSpec(ring, [tok.element for tok in tokens], tokens)


def target_from_job(ring: GradedRing, doc: dict):
    entries = doc.get("target")
    if entries is None:
        return None
    return QuotientRing(ring, tuple(ring.parse(t) for t in entries))


# -- payload builders --------------------------------------------------


def presentation_payload(pres) -> dict:
    return {
        "kind": pres.kind,
        "generators": [[name, degree] for name, degree in pres.generators],
        "relations": list(pres.relations),
        "display": pres.display,
    }


def form_payload(form) -> dict:
    return {
        "size": form.module.rank,
        "degrees": list(form.module.degrees),
        "entries": [[repr(e) for e in row] for row in form.entries],
        "diagonal": form.is_diagonal(),
        "zero": form.is_zero(),
    }


def element_payload(elem) -> dict:
    coeff = elem.owner.coeff
    terms = [
        {"word": list(w), "coeff": coeff.render(c)}
        for w, c in sorted(elem.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"display": repr(elem), "terms": terms}


def module_entry_payload(entry) -> dict:
    return {"free_rank": entry.free_rank, "factors": list(entry.factors)}


def graded_report_payload(report) -> dict:
    return {
        "scanned": list(report.scanned),
        "entries": {
            str(d): {"free_rank": e["free_rank"], "factors": e["factors"]}
            for d, e in report.as_dict().items()
        },
    }


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
