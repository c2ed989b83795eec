"""Graded commutative rings concentrated in even degrees.

A ring is presented by a base coefficient ring, a finite list of even-degree
generators (optionally invertible) and optional homogeneous relations.  All
computations happen inside an explicit window: monomial degrees are bounded
by ``degree_window`` and exponents of invertible generators by
``laurent_window``.  Exponents of degree-zero generators are capped by the
degree window, which keeps every graded piece finite.

Degreewise questions (membership, canonical residues, quotient invariants)
reduce to lattice computations over the base ring; see ``linalg``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .errors import MixedRings, NonHomogeneous, SemanticError, WindowOverflow
from .linalg import cleared_matrix, lattice_for, module_invariants
from .scalars import BaseRing


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    invertible: bool = False


class GradedRing:
    """Presentation of a graded ring inside a fixed computation window."""

    def __init__(
        self,
        base: BaseRing,
        generators,
        degree_window: int,
        laurent_window: int = 2,
        relations=(),
    ):
        if not isinstance(base, BaseRing):
            raise SemanticError("base must be a BaseRing")
        gens = tuple(generators)
        seen = set()
        for g in gens:
            if not isinstance(g, Generator):
                raise SemanticError("generators must be Generator instances")
            if not g.name.isidentifier():
                raise SemanticError("generator name %r is not an identifier" % (g.name,))
            if g.name in seen:
                raise SemanticError("duplicate generator name %r" % (g.name,))
            seen.add(g.name)
            if g.degree < 0 or g.degree % 2 != 0:
                raise SemanticError(
                    "generator %s has degree %d; degrees must be even and >= 0"
                    % (g.name, g.degree)
                )
        if degree_window < 0:
            raise SemanticError("degree window must be >= 0")
        if laurent_window < 0:
            raise SemanticError("laurent window must be >= 0")
        self.base = base
        self.generators = gens
        self.degree_window = degree_window
        self.laurent_window = laurent_window
        self._index = {g.name: i for i, g in enumerate(gens)}
        rels = (self.element(r.terms if isinstance(r, RingElement) else r) for r in relations)
        self._relation_terms = tuple(sorted(tuple(sorted(r.terms.items())) for r in rels if r.terms))
        self.relations = tuple(RingElement(self, dict(t)) for t in self._relation_terms)
        for r in self.relations:
            if not r.is_homogeneous():
                raise NonHomogeneous("ring relations must be homogeneous")
        # the key never changes after construction
        self._hash = hash(self._key())

    # -- identity -----------------------------------------------------

    def _key(self):
        return (
            self.base,
            self.generators,
            self.degree_window,
            self.laurent_window,
            self._relation_terms,
        )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedRing) and self._key() == other._key()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        names = ", ".join(
            g.name + ("^{±1}" if g.invertible else "") for g in self.generators
        )
        return "%r[%s]" % (self.base, names)

    # -- element constructors -----------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return RingElement(self, {(0,) * len(self.generators): self.base.one()})

    def constant(self, c) -> "RingElement":
        return self.element({(0,) * len(self.generators): c})

    def monomial(self, exps, coeff=1) -> "RingElement":
        return self.element({tuple(exps): coeff})

    def var(self, name: str) -> "RingElement":
        if name not in self._index:
            raise SemanticError("unknown generator %r" % (name,))
        exps = [0] * len(self.generators)
        exps[self._index[name]] = 1
        return self.monomial(exps)

    def element(self, terms) -> "RingElement":
        """The element with the ``{exponents: coefficient}`` terms given:
        the entry point that normalizes each coefficient and checks each
        monomial with a nonzero one against the window."""
        clean = {}
        for exps, c in dict(terms).items():
            c = self.base.normalize(c)
            if c:
                exps = tuple(exps)
                self.check_exps(exps)
                clean[exps] = c
        return RingElement(self, clean)

    def parse(self, text: str) -> "RingElement":
        from .exprs import evaluate

        def atom(name):
            if name in self._index:
                return self.var(name)
            raise SemanticError("unknown name %r in element expression" % (name,))

        def power(value, k):
            if isinstance(value, RingElement) and len(value.terms) == 1:
                (exps, c), = value.terms.items()
                if c == self.base.one():
                    return self.monomial([e * k for e in exps])
            if k < 0:
                raise SemanticError("negative powers need a single invertible monomial")
            out = self.one()
            for _ in range(k):
                out = out * value
            return out

        return evaluate(text, atom, self.constant, power)

    # -- structure ----------------------------------------------------

    def monomial_degree(self, exps) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.generators))

    def min_monomial_degree(self) -> int:
        return sum(
            -self.laurent_window * g.degree for g in self.generators if g.invertible
        )

    def check_exps(self, exps) -> None:
        if len(exps) != len(self.generators):
            raise SemanticError("exponent tuple has wrong length")
        for e, g in zip(exps, self.generators):
            if g.invertible:
                if abs(e) > self.laurent_window:
                    raise WindowOverflow(
                        "exponent %d of %s outside laurent window %d"
                        % (e, g.name, self.laurent_window)
                    )
            else:
                if e < 0:
                    raise SemanticError(
                        "negative exponent %d of non-invertible %s" % (e, g.name)
                    )
                if g.degree == 0 and e > self.degree_window:
                    raise WindowOverflow(
                        "exponent %d of degree-zero generator %s outside window %d"
                        % (e, g.name, self.degree_window)
                    )
        d = self.monomial_degree(exps)
        if d > self.degree_window:
            raise WindowOverflow(
                "monomial degree %d exceeds window %d" % (d, self.degree_window)
            )

    # -- degreewise bases ---------------------------------------------

    def degree_exps(self, d: int):
        if d > self.degree_window:
            raise WindowOverflow(
                "degree %d exceeds window %d" % (d, self.degree_window)
            )
        return _degree_exps(self, d)

    def degree_basis(self, d: int):
        """Monomials of total degree ``d`` inside the window, in lex order."""
        return [self.monomial(e) for e in self.degree_exps(d)]

    def even_degrees(self, up_to: int | None = None):
        top = self.degree_window if up_to is None else min(up_to, self.degree_window)
        lo = self.min_monomial_degree()
        if lo % 2:
            lo += 1
        return range(lo, top + 1, 2)


@lru_cache(maxsize=None)
def _degree_exps(ring: GradedRing, d: int):
    gens = ring.generators
    n = len(gens)
    lw = ring.laurent_window
    minrest = [0] * (n + 1)
    maxrest: list[int | None] = [0] * (n + 1)
    modulus = [0] * (n + 1)  # gcd of the degrees of generators i, i + 1, ...
    for i in range(n - 1, -1, -1):
        g = gens[i]
        modulus[i] = gcd(g.degree, modulus[i + 1])
        lo = -lw * g.degree if g.invertible else 0
        minrest[i] = minrest[i + 1] + lo
        if maxrest[i + 1] is None or (not g.invertible and g.degree > 0):
            maxrest[i] = None
        else:
            hi = lw * g.degree if g.invertible else 0
            maxrest[i] = maxrest[i + 1] + hi
    out = []
    acc = [0] * n

    def rec(i: int, remaining: int) -> None:
        if i == n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        g = gens[i]
        if g.invertible:
            lo, hi = -lw, lw
        elif g.degree == 0:
            lo, hi = 0, ring.degree_window
        else:
            lo = 0
            hi = remaining - minrest[i + 1]
            if hi < 0:
                return
            hi //= g.degree
        # Generators i, i + 1, ... reach only multiples of k = modulus[i], and
        # those after i of G = modulus[i + 1]: remaining - e * |g| is one iff
        # e lies in one class mod G / k, or, for G = 0, iff it is 0.
        k, G = modulus[i], modulus[i + 1]
        if k and remaining % k:
            return
        step = G // k if G else 1
        if step > 1:
            lo += ((remaining // k) * pow(g.degree // k, -1, step) - lo) % step
        elif k and not G:
            lo, hi = max(lo, remaining // k), min(hi, remaining // k)
        for e in range(lo, hi + 1, step):
            rem = remaining - e * g.degree
            if rem < minrest[i + 1]:
                if not g.invertible and g.degree > 0:
                    break
                continue
            if maxrest[i + 1] is not None and rem > maxrest[i + 1]:
                continue
            acc[i] = e
            rec(i + 1, rem)
            acc[i] = 0

    rec(0, d)
    return tuple(sorted(out))


class RingElement:
    """Finite sum of monomial terms with base ring coefficients.

    ``terms`` maps exponent tuples that pass ``ring.check_exps`` to
    coefficients that ``ring.base.normalize`` leaves unchanged; the
    constructor drops the zero ones and trusts the rest.  Outside input
    enters through ``GradedRing.element``, which checks both.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: GradedRing, terms):
        self.ring = ring
        self.terms = {exps: c for exps, c in terms.items() if c}
        self._hash = None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Degree of a homogeneous element; None for zero."""
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NonHomogeneous("element %s has mixed degrees" % (self,))
        return degs.pop()

    def homogeneous_components(self):
        comps: dict[int, dict] = {}
        for exps, c in self.terms.items():
            comps.setdefault(self.ring.monomial_degree(exps), {})[exps] = c
        return {
            d: RingElement(self.ring, t) for d, t in sorted(comps.items())
        }

    # -- arithmetic ---------------------------------------------------

    def _check_same(self, other: "RingElement") -> None:
        if self.ring != other.ring:
            raise MixedRings("elements of %r and %r" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        base = self.ring.base
        for exps, c in other.terms.items():
            terms[exps] = base.add(terms.get(exps, base.zero()), c)
        return RingElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        base = self.ring.base
        return RingElement(
            self.ring, {e: base.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            base = self.ring.base
            c = base.normalize(other)
            return RingElement(
                self.ring, {e: base.mul(a, c) for e, a in self.terms.items()}
            )
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_same(other)
        base = self.ring.base
        terms: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = base.mul(c1, c2)
                if exps in terms:
                    terms[exps] = base.add(terms[exps], c)
                else:
                    terms[exps] = c
        # a product is the one result that can leave the window
        out = RingElement(self.ring, terms)
        for exps in out.terms:
            self.ring.check_exps(exps)
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SemanticError("powers must be non-negative integers")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- coordinates --------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.base.zero())

    def vector(self, exps_list):
        missing = set(self.terms) - set(exps_list)
        if missing:
            raise SemanticError("element has terms outside the given basis")
        return [self.terms.get(e, self.ring.base.zero()) for e in exps_list]

    # -- rendering ----------------------------------------------------

    def _term_str(self, exps, coeff) -> str:
        base = self.ring.base
        factors = []
        for e, g in zip(exps, self.ring.generators):
            if e == 0:
                continue
            factors.append(g.name if e == 1 else "%s^%d" % (g.name, e))
        if not factors:
            return base.render(coeff)
        body = "*".join(factors)
        if coeff == base.one():
            return body
        return "%s*%s" % (base.render(coeff), body)

    def __repr__(self):
        if not self.terms:
            return "0"
        keyed = sorted(
            self.terms.items(),
            key=lambda item: (self.ring.monomial_degree(item[0]), item[0]),
        )
        parts = []
        for i, (exps, coeff) in enumerate(keyed):
            txt = self._term_str(exps, coeff)
            if i == 0:
                parts.append(txt)
            elif txt.startswith("-"):
                parts.append("- " + txt[1:])
            else:
                parts.append("+ " + txt)
        return " ".join(parts)


# -- degreewise ideal contexts ----------------------------------------


def cleared_coefficients(polys):
    """``(rows, scale)``: the coefficients of each polynomial, in the order
    of its ``terms``, as ``int`` s times one common multiple ``scale`` of
    their denominators.  Over Z_(p) the denominators are p-units, so
    ``scale`` is a p-unit; over Z, F_p and Z/m it is 1.  Scaling by a unit
    keeps every span and kernel over the base, so the ideal slices and the
    Koszul differentials both take their ``int`` entries from here."""
    return cleared_matrix([list(g.terms.values()) for g in polys])


class IdealContext:
    """Canonical reduction data for one ideal in one degree.

    ``rows`` are tagged ``("gen", i, m)`` (generator ``i`` times monomial
    ``m``, in monomial order) or ``("relation", i, m)``, in that order: all
    ``gen`` rows come first.  Every row holds ``int`` entries: the
    coefficients of the generators and relations times one common multiple
    ``scale`` of their denominators, a p-unit that is 1 over Z, F_p and
    Z/m, so the rows span the ideal's slice over the base.  The rows carry
    nothing for the base itself: ``linalg`` works mod p over F_p and adds
    the multiples of m over Z/m.  The context is the one owner of its
    slice's ``lattice``, built on first read: a caller that needs only the
    rows builds none.
    """

    def __init__(self, ring: GradedRing, gens, d: int):
        self.ring = ring
        self.d = d
        self.exps = list(ring.degree_exps(d))
        index = {e: j for j, e in enumerate(self.exps)}
        width = len(self.exps)
        rows = []
        tags = []
        gens = tuple(gens)
        polys = gens + ring.relations
        for g in polys:
            if g.ring != ring:
                raise MixedRings("ideal generator from a different ring")
        nums, self.scale = cleared_coefficients(polys)
        for gi, (g, coeffs) in enumerate(zip(polys, nums)):
            if not coeffs:
                continue
            gd = g.degree()
            if d - gd > ring.degree_window:
                continue
            for m in ring.degree_exps(d - gd):
                cols = [index.get(tuple(a + b for a, b in zip(m, exps))) for exps in g.terms]
                if None in cols:
                    continue
                row = [0] * width
                for j, c in zip(cols, coeffs):
                    row[j] = c
                rows.append(row)
                tags.append(("gen" if gi < len(gens) else "relation", gi, m))
        self.rows = rows
        self.tags = tags
        self.width = width

    @cached_property
    def lattice(self):
        return lattice_for(self.ring.base, self.rows, self.width)

    @cached_property
    def residue_lattice(self):
        """The span of ``rows`` mod the prime p of F_p or Z_(p), built on
        first read; over F_p it is ``lattice`` itself."""
        field = BaseRing.prime_field(self.ring.base.p)
        if field == self.ring.base:
            return self.lattice
        return lattice_for(field, self.rows, self.width)

    def contains_vector(self, vec) -> bool:
        return self.lattice.contains(vec)

    def solve_vector(self, vec):
        """Pairs ``(tag, c)`` writing ``vec`` as the sum of ``c`` times the
        multiple each tag names, before ``scale``, over the base, each ``c``
        nonzero and canonical; or None.

        Over Z/m the lattice's own multiples of m come after the tagged rows
        and drop out of the pairs, being zero over Z/m."""
        sol = self.lattice.solve(vec)
        if sol is None:
            return None
        S, D = sol
        normalize, scale = self.ring.base.normalize, self.scale
        # S is not reduced over F_p and Z/m, so x may normalize to 0
        return [
            (tag, c)
            for tag, x in zip(self.tags, S)
            if x and (c := normalize(x * scale if D == 1 else Fraction(x * scale, D)))
        ]

    def quotient_entry(self):
        """(free rank, nontrivial invariant factors) of this graded piece."""
        return module_invariants(self.ring.base, self.rows, self.width)


@lru_cache(maxsize=None)
def _cached_context(ring: GradedRing, gens, d: int) -> IdealContext:
    return IdealContext(ring, gens, d)


def ideal_context(ring: GradedRing, gens, d: int) -> IdealContext:
    return _cached_context(ring, tuple(gens), d)


def normal_form(element: RingElement, gens, degree: int | None = None) -> RingElement:
    """Canonical residue of a homogeneous element modulo an ideal slice.

    The residue is zero exactly when the element lies in the ideal's span
    within the window.
    """
    ring = element.ring
    for g in gens:
        if isinstance(g, RingElement) and g.ring != ring:
            raise MixedRings("ideal generators from a different ring")
    if element.is_zero():
        return element
    if not element.is_homogeneous():
        raise NonHomogeneous("normal_form needs a homogeneous element")
    d = element.degree()
    if degree is not None:
        if d > degree:
            raise WindowOverflow(
                "element degree %d exceeds requested bound %d" % (d, degree)
            )
        if degree > ring.degree_window:
            raise WindowOverflow(
                "bound %d exceeds degree window %d" % (degree, ring.degree_window)
            )
    ctx = ideal_context(ring, gens, d)
    # The lattice answers the canonical residue as integers N over one unit
    # D: ints over Z, in [0, pivot), inside [0, m), over Z/m, residues mod p
    # over F_p, and over Z_(p) numerators over a p-unit.  This exit and
    # IdealContext.solve_vector are the only places that divide, and
    # normalize gives each coefficient its base ring's type.
    N, D = ctx.lattice.reduce(element.vector(ctx.exps))
    normalize = ring.base.normalize
    return RingElement(
        ring, {e: normalize(x if D == 1 else Fraction(x, D)) for e, x in zip(ctx.exps, N) if x}
    )


def normal_form_any(element: RingElement, gens) -> RingElement:
    """Componentwise normal form; accepts inhomogeneous elements."""
    out = element.ring.zero()
    for comp in element.homogeneous_components().values():
        out = out + normal_form(comp, gens)
    return out


class QuotientRing:
    """View of R/I with arithmetic done through canonical residues."""

    def __init__(self, ring: GradedRing, ideal=()):
        self.ring = ring
        ideal = tuple(ideal)
        for g in ideal:
            if g.ring != ring:
                raise MixedRings("ideal generator from a different ring")
            if not g.is_homogeneous():
                raise NonHomogeneous("ideal generators must be homogeneous")
        self.ideal = tuple(g for g in ideal if not g.is_zero())
        # element -> residue; each residue is also its own key (nf is idempotent)
        self._nf: dict = {}
        # operands -> residue of their sum, product or negative: a job sees
        # few distinct residues, so each operation runs once per operands
        self._add: dict = {}
        self._mul: dict = {}
        self._neg: dict = {}
        self._zero = ring.zero()
        self._one = None

    def _key(self):
        return (self.ring, self.ideal)

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if not self.ideal:
            return repr(self.ring)
        return "%r/(%s)" % (self.ring, ", ".join(repr(g) for g in self.ideal))

    def nf(self, element: RingElement) -> RingElement:
        red = self._nf.get(element)
        if red is not None:
            return red
        if element.ring != self.ring:
            raise MixedRings("element of %r reduced in %r" % (element.ring, self.ring))
        red = normal_form_any(element, self.ideal)
        self._nf[element] = self._nf[red] = red
        return red

    def is_zero(self, element: RingElement) -> bool:
        return self.nf(element).is_zero()

    def eq(self, a: RingElement, b: RingElement) -> bool:
        return self.nf(a - b).is_zero()

    def one(self) -> RingElement:
        if self._one is None:
            self._one = self.nf(self.ring.one())
        return self._one

    def zero(self) -> RingElement:
        return self._zero

    # add, mul and neg store a result only once it is computed, so an
    # operation that raises (a product leaving the window) raises each time

    def add(self, a, b):
        key = (a, b)
        red = self._add.get(key)
        if red is None:
            red = self._add[key] = self.nf(a + b)
        return red

    def mul(self, a, b):
        key = (a, b)
        red = self._mul.get(key)
        if red is None:
            red = self._mul[key] = self.nf(a * b)
        return red

    def neg(self, a):
        red = self._neg.get(a)
        if red is None:
            red = self._neg[a] = self.nf(-a)
        return red

    def entry(self, d: int):
        """(free rank, invariant factors) of the degree-d graded piece."""
        return ideal_context(self.ring, self.ideal, d).quotient_entry()

    def is_trivial(self) -> bool:
        return self.nf(self.ring.one()).is_zero()


def domain_report(ring: GradedRing):
    """Whether the presented ring is an integral domain, as far as claimed.

    With no relations the monomial basis is free, so the ring is a domain
    exactly when the base is; the check is structural and reported as
    verified up to the degree window.
    """
    if ring.relations:
        return {
            "domain": None,
            "verified_up_to": 0,
            "reason": "relations present; no degreewise domain claim is made",
        }
    if not ring.base.is_domain:
        m = ring.base.modulus
        d = next(k for k in range(2, m) if m % k == 0)
        return {
            "domain": False,
            "verified_up_to": ring.degree_window,
            "reason": "zero divisors in the base: %d * %d = 0" % (d, m // d),
        }
    return {
        "domain": True,
        "verified_up_to": ring.degree_window,
        "reason": "free monomial basis over a domain base",
    }
