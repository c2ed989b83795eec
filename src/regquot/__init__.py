"""Homology and cohomology algebras of regular quotient rings.

Exact symbolic computation over even-graded coefficient rings: regular
sequences and Koszul homology, conormal modules with their bilinear
forms, Clifford and exterior algebra presentations of quotient
homology, Bockstein derivations on the cohomology side, and ready-made
Morava K-theory scenarios.  The ``regquot`` command line runs one JSON
job document per invocation.

Importing the package executes none of its modules.  The names of
``__all__`` resolve on first use (PEP 562), and the algebra modules that
only some commands run are registered in ``sys.modules`` through
``importlib.util.LazyLoader``: each is there at once, and it executes on
its first attribute read.
"""
import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {
    "clifford": (
        "AlgebraPresentation",
        "CliffordAlgebra",
        "antipode",
        "brute_force_presentation",
        "homology_presentation",
        "induced_algebra_map",
        "presentation_of",
    ),
    "conormal": (
        "BilinearFormData",
        "ProductToken",
        "QuotientRingSpec",
        "base_change_form",
        "characteristic_form_diagonal",
        "conormal_module",
        "zero_form",
    ),
    "derivations": (
        "bockstein",
        "cohomology_presentation",
        "compose",
        "duality_square_commutes",
        "leibniz_check",
        "theta",
        "theta_rank",
    ),
    "ideals": (
        "check_condition_ii",
        "check_regular_sequence",
        "decompose_conormal",
        "tor",
        "tor1_equals_intersection_over_product",
    ),
    "morava": ("MoravaScenario", "build_scenario", "minimum_window"),
    "pairs": ("AdmissiblePair", "PairMorphism", "make_pair", "naturality_suite"),
    "ring": ("GradedRing", "Generator", "QuotientRing"),
    "scalars": ("BaseRing",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

# The algebra layers past the ring core.  jobio.parse_job executes the
# ones a job's command runs, so the tor and decompose jobs never compile
# them.  They are in sys.modules from here on, as callers that look a
# module up there before any job is parsed expect.
for _name in ("clifford", "conormal", "derivations", "morava", "pairs"):
    _spec = find_spec("%s.%s" % (__name__, _name))
    _spec.loader = LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
