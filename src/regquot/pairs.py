"""Admissible pairs of quotient specifications and naturality harnesses.

A pair couples a quotient F = R/I with a target k = R/K through the
canonical projection, which must kill I.  Morphisms nest the ideals on
both levels; the naturality suite checks the characteristic-map square,
form functoriality and multiplicativity of the induced algebra map and
reports each square separately.  The ``naturality`` command runs the
suite.
"""
from __future__ import annotations

from typing import NamedTuple

from .clifford import AlgebraMap, homology_presentation, induced_algebra_map
from .conormal import QuotientRingSpec, base_change_form, characteristic_form_diagonal
from .errors import (
    MixedRings,
    NotCompatible,
    NotUnital,
    NotWellDefined,
    SemanticError,
)
from .ring import QuotientRing, RingElement


def _as_spec(value) -> QuotientRingSpec:
    if isinstance(value, QuotientRingSpec):
        return value
    if isinstance(value, QuotientRing):
        return QuotientRingSpec(value.ring, value.ideal)
    raise SemanticError("expected a quotient ring or quotient specification")


class AdmissiblePair:
    """A quotient specification with a coefficient target killing its ideal."""

    def __init__(self, source: QuotientRingSpec, target, multiplicative=False):
        source = _as_spec(source)
        target = _as_spec(target)
        if source.ring != target.ring:
            raise MixedRings("pair members over different rings")
        tq = target.coefficients
        for x in source.sequence:
            if not tq.nf(x).is_zero():
                raise NotUnital(
                    "projection does not kill %r within the window" % x
                )
        if multiplicative:
            _check_token_compatibility(source, target)
        self.source = source
        self.target = target
        self.multiplicative = bool(multiplicative)
        self._algebra = None

    def project(self, x: RingElement) -> RingElement:
        """The canonical projection on coefficient residues."""
        return self.target.coefficients.nf(x)

    def homology_algebra(self):
        """Presentation and algebra of the pair's homology, cached."""
        if self._algebra is None:
            self._algebra = homology_presentation(self.source, self.target)
        return self._algebra

    def __eq__(self, other):
        return (
            isinstance(other, AdmissiblePair)
            and self.source == other.source
            and self.target == other.target
            and self.multiplicative == other.multiplicative
        )

    def __repr__(self):
        flag = ", multiplicative" if self.multiplicative else ""
        return "pair(%r -> %r%s)" % (self.source, self.target, flag)


def _check_token_compatibility(source: QuotientRingSpec, target: QuotientRingSpec):
    """Refute a declared multiplicative flag on visibly conflicting tokens.

    Only sequence entries shared by both quotients are decidable here:
    their obstruction classes must agree in the target coefficients.
    """
    tq = target.coefficients
    for x, tok in zip(source.sequence, source.products):
        for y, other in zip(target.sequence, target.products):
            if x != y:
                continue
            mine = tq.nf(tok.obstruction_or_zero())
            theirs = tq.nf(other.obstruction_or_zero())
            if mine != theirs:
                raise NotCompatible(
                    "obstruction classes for %r disagree in the target" % x
                )


def make_pair(source, target, multiplicative=False) -> AdmissiblePair:
    return AdmissiblePair(source, target, multiplicative)


class PairMorphism:
    """Nested pairs with a degreewise commuting-square witness."""

    def __init__(self, source: AdmissiblePair, target: AdmissiblePair):
        if not isinstance(source, AdmissiblePair) or not isinstance(
            target, AdmissiblePair
        ):
            raise SemanticError("morphisms connect admissible pairs")
        if source.source.ring != target.source.ring:
            raise MixedRings("pairs over different rings")
        gq = target.source.coefficients
        for x in source.source.sequence:
            if not gq.nf(x).is_zero():
                raise NotWellDefined(
                    "source ideal does not land in the target ideal"
                )
        lq = target.target.coefficients
        for x in source.target.sequence:
            if not lq.nf(x).is_zero():
                raise NotWellDefined(
                    "source target-ideal does not land in the final target"
                )
        self.source = source
        self.target = target
        self._verify_square()

    def _verify_square(self):
        """Both projection routes to the final coefficients, in every degree
        of the window."""
        ring = self.source.source.ring
        kq = self.source.target.coefficients
        gq = self.target.source.coefficients
        lq = self.target.target.coefficients
        for d in ring.even_degrees():
            for exps in ring.degree_exps(d):
                m = ring.element({tuple(exps): ring.base.one()})
                through_k = lq.nf(kq.nf(m))
                through_g = lq.nf(gq.nf(m))
                if through_k != through_g:
                    raise NotWellDefined(
                        "projection square fails on %r in degree %d" % (m, d)
                    )

    def __repr__(self):
        return "morphism(%r => %r)" % (self.source, self.target)


class NaturalityReport(NamedTuple):
    checks: tuple  # (name, passed, detail)
    amap: AlgebraMap | None = None  # the induced map, None when none exists

    @property
    def all_pass(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failing(self):
        return tuple(name for name, passed, _ in self.checks if not passed)

    def detail(self, name: str) -> str:
        for n, _, d in self.checks:
            if n == name:
                return d
        raise SemanticError("no check named %r" % name)


def naturality_suite(m: PairMorphism) -> NaturalityReport:
    """Check the pair-morphism squares and report each one.  The induced
    map is multiplicative once it exists: see ``AlgebraMap``."""
    F, k, l = m.source.source, m.source.target, m.target.target
    _, cl_f = homology_presentation(F, l)
    _, cl_g = m.target.homology_algebra()
    try:
        amap = induced_algebra_map(cl_f, cl_g)
    except NotCompatible as err:
        return NaturalityReport((("induced-map-exists", False, str(err)),))

    # characteristic-map square on the ideal generators and their sums
    seq = F.sequence
    samples = list(seq) + [x + y for i, x in enumerate(seq) for y in seq[i + 1 :]]
    bad = [repr(x) for x in samples if amap.apply(cl_f.phi(x)) != cl_g.phi(x)]

    # pushing the form in one step agrees with pushing through k
    b_f = characteristic_form_diagonal(F)
    ok = base_change_form(b_f, l) == base_change_form(base_change_form(b_f, k), l)
    checks = (
        ("induced-map-exists", True, ""),
        ("phi-square", not bad, "fails on: " + ", ".join(bad) if bad else ""),
        ("form-functoriality", ok, "" if ok else "entrywise mismatch"),
        ("induced-map-multiplicative", True, ""),
    )
    return NaturalityReport(checks, amap)

