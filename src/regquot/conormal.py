"""Conormal modules and characteristic bilinear forms.

A quotient specification couples a graded ring with a finite sequence of
even-degree elements and one product token per entry.  The conormal module
is free on the residue classes of the sequence, shifted into odd degrees,
and the characteristic form is assembled from the declared obstruction
representatives.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .errors import (
    DegreeMismatch,
    MixedRings,
    NotInIdeal,
    NotRegular,
    NotWellDefined,
    SemanticError,
)
from .ideals import ModuleEntry, RegularityReport, _regularity, checked_sequence
from .ring import GradedRing, QuotientRing, RingElement, ideal_context, normal_form


class ProductToken(namedtuple("ProductToken", ("element", "obstruction", "commutative"))):
    """Declared product structure on R/x: an obstruction class mod (x).

    The element and the obstruction are ``RingElement`` values; the
    obstruction is stored as a representative in R of degree 2|x|+2, or
    None.  The commutative flag is derived: it is set iff the
    representative reduces to zero modulo (x).
    """

    __slots__ = ()

    def __new__(cls, element, obstruction=None):
        if not isinstance(element, RingElement):
            raise SemanticError("token element must be a ring element")
        if element.is_zero():
            raise SemanticError("sequence entries must be nonzero")
        ring = element.ring
        if obstruction is not None and obstruction.is_zero():
            obstruction = None
        if obstruction is not None:
            if not isinstance(obstruction, RingElement):
                raise SemanticError("obstruction must be a ring element")
            if obstruction.ring != ring:
                raise MixedRings("obstruction from a different ring")
            if not obstruction.is_homogeneous():
                raise DegreeMismatch("obstruction must be homogeneous")
            want = 2 * element.degree() + 2
            if obstruction.degree() != want:
                raise DegreeMismatch(
                    "obstruction degree %d, expected %d"
                    % (obstruction.degree(), want)
                )
        if obstruction is None:
            commutative = True
        else:
            commutative = normal_form(obstruction, (element,)).is_zero()
        return super().__new__(cls, element, obstruction, commutative)

    def obstruction_or_zero(self) -> RingElement:
        if self.obstruction is None:
            return self.element.ring.zero()
        return self.obstruction


class QuotientRingSpec:
    """A graded ring, a quotient sequence and per-entry product tokens."""

    def __init__(self, ring: GradedRing, sequence, products=None):
        if not isinstance(ring, GradedRing):
            raise SemanticError("ring must be a GradedRing")
        seq = checked_sequence(ring, sequence, allow_empty=True)
        for x in seq:
            if x.is_zero():
                raise SemanticError("sequence entries must be nonzero")
        self.ring = ring
        self.sequence = seq
        if products is None:
            products = [ProductToken(x) for x in seq]
        products = tuple(products)
        if len(products) != len(seq):
            raise SemanticError("one product token per sequence entry required")
        for tok, x in zip(products, seq):
            if not isinstance(tok, ProductToken):
                raise SemanticError("products must be ProductToken instances")
            if tok.element != x:
                raise SemanticError("token element does not match the sequence")
        self.products = products
        self.coefficients = QuotientRing(ring, seq)

    @cached_property
    def regularity(self) -> RegularityReport:
        """The regularity report of the sequence, computed on first read."""
        return _regularity(self.ring, self.sequence, self.ring.degree_window)

    @property
    def is_regular(self) -> bool:
        return self.regularity.regular

    def rank(self) -> int:
        return len(self.sequence)

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRingSpec)
            and self.ring == other.ring
            and self.sequence == other.sequence
            and self.products == other.products
        )

    def __repr__(self):
        gens = ", ".join(repr(x) for x in self.sequence)
        return "%r/(%s)" % (self.ring, gens)


class ConormalModule:
    """I/I² shifted by one: free on the classes of the sequence entries."""

    def __init__(self, parent: QuotientRingSpec, coefficients: QuotientRing | None = None):
        self.parent = parent
        self.ring = parent.ring
        self.coefficients = parent.coefficients if coefficients is None else coefficients
        self.degrees = tuple(x.degree() + 1 for x in parent.sequence)
        self.rank = len(self.degrees)

    def with_coefficients(self, coefficients: QuotientRing) -> "ConormalModule":
        return ConormalModule(self.parent, coefficients)

    def residue_coordinates(self, x: RingElement):
        """Coordinates of the class of x in the chosen basis, reduced
        modulo the coefficient ideal."""
        if not isinstance(x, RingElement) or x.ring != self.ring:
            raise MixedRings("element from a different ring")
        seq = self.parent.sequence
        parts = [self.ring.zero() for _ in seq]
        for comp in x.homogeneous_components().values():
            d = comp.degree()
            ctx = ideal_context(self.ring, seq, d)
            tagged = ctx.solve_vector(ctx.vector(comp))
            if tagged is None:
                raise NotInIdeal("element is not in the ideal within the window")
            for (kind, gi, m), c in tagged:
                if kind != "gen":
                    continue
                parts[gi] = parts[gi] + self.ring.element({m: c})
        return tuple(self.coefficients.nf(r) for r in parts)

    def __eq__(self, other):
        return (
            isinstance(other, ConormalModule)
            and self.parent == other.parent
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return "conormal module of rank %d, degrees %s" % (self.rank, list(self.degrees))


def conormal_module(spec: QuotientRingSpec, allow_unverified: bool = False) -> ConormalModule:
    """The free module on the sequence classes, degrees shifted by one."""
    if not spec.is_regular and not allow_unverified:
        raise NotRegular(
            "sequence not verified regular (fails at entry %s)"
            % (spec.regularity.first_failure,)
        )
    return ConormalModule(spec)


class BilinearFormData:
    """Square matrix of form entries over the module's coefficient ring."""

    def __init__(self, module: ConormalModule, entries):
        self.module = module
        n = module.rank
        rows = [list(r) for r in entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise SemanticError("form matrix must be %d x %d" % (n, n))
        ring = module.ring
        norm = []
        for i, row in enumerate(rows):
            out = []
            for j, e in enumerate(row):
                if isinstance(e, int) and e == 0:
                    e = ring.zero()
                if not isinstance(e, RingElement) or e.ring != ring:
                    raise MixedRings("form entry outside the coefficient ring")
                e = module.coefficients.nf(e)
                if not e.is_zero():
                    if not e.is_homogeneous():
                        raise DegreeMismatch("form entries must be homogeneous")
                    want = module.degrees[i] + module.degrees[j]
                    if e.degree() != want:
                        raise DegreeMismatch(
                            "entry (%d, %d) has degree %d, expected %d"
                            % (i, j, e.degree(), want)
                        )
                out.append(e)
            norm.append(tuple(out))
        self.entries = tuple(norm)

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]

    def quadratic(self, i: int) -> RingElement:
        return self.entries[i][i]

    def polarized(self, i: int, j: int) -> RingElement:
        return self.module.coefficients.nf(self.entries[i][j] + self.entries[j][i])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.module.rank)
            for j in range(self.module.rank)
            if i != j
        )

    def __eq__(self, other):
        return (
            isinstance(other, BilinearFormData)
            and self.module == other.module
            and self.entries == other.entries
        )

    def __repr__(self):
        rows = [
            "[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries
        ]
        return "form[" + "; ".join(rows) + "]"


def zero_form(module: ConormalModule) -> BilinearFormData:
    z = module.ring.zero()
    return BilinearFormData(module, [[z] * module.rank for _ in range(module.rank)])


def characteristic_form_diagonal(spec: QuotientRingSpec) -> BilinearFormData:
    """Diagonal form with entries the negated obstruction classes mod I."""
    module = conormal_module(spec, allow_unverified=True)
    ring = spec.ring
    n = module.rank
    entries = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i, tok in enumerate(spec.products):
        entries[i][i] = spec.coefficients.nf(-tok.obstruction_or_zero())
    return BilinearFormData(module, entries)


def base_change_form(form: BilinearFormData, target) -> BilinearFormData:
    """Push the form forward along the canonical projection to R/K.

    The target may be a QuotientRingSpec or a QuotientRing over the same
    ambient ring; its ideal must contain the source sequence.
    """
    if isinstance(target, QuotientRingSpec):
        tq = target.coefficients
    elif isinstance(target, QuotientRing):
        tq = target
    else:
        raise SemanticError("target must be a quotient specification")
    module = form.module
    if tq.ring != module.ring:
        raise MixedRings("target over a different ring")
    for x in module.parent.sequence:
        if not tq.nf(x).is_zero():
            raise NotWellDefined(
                "projection does not kill the ideal within the window"
            )
    new_module = module.with_coefficients(tq)
    entries = [[tq.nf(e) for e in row] for row in form.entries]
    return BilinearFormData(new_module, entries)


def exterior_rank_profile(module: ConormalModule, p: int):
    """Degreewise dimensions of the exterior algebra on the module basis.

    Coefficients are taken in the module's coefficient ring, which must be
    degreewise an F_p vector space within the window.
    """
    ring = module.ring
    degs = module.degrees
    shifts = [sum(c) for k in range(len(degs) + 1) for c in combinations(degs, k)]
    profile: dict = {}
    for q in ring.even_degrees():
        dim = ModuleEntry(*module.coefficients.entry(q)).dimension_over(p)
        if dim is None:
            raise SemanticError(
                "coefficients are not an F_%d vector space in degree %d" % (p, q)
            )
        if dim:
            for shift in shifts:
                profile[q + shift] = profile.get(q + shift, 0) + dim
    return profile
