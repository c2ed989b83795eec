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

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, repeat
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .errors import MixedRings, NonHomogeneous, SemanticError, WindowOverflow
from .linalg import cleared_matrix, lattice_for, module_invariants
from .scalars import BaseRing


class Generator(NamedTuple):
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
            return value**k

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

    def check_degree(self, d: int) -> None:
        if d > self.degree_window:
            raise WindowOverflow(
                "degree %d exceeds window %d" % (d, self.degree_window)
            )

    def degree_exps(self, d: int):
        self.check_degree(d)
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
    """Every exponent tuple of degree ``d`` inside the window, in lex order.

    The bounded exponents come first: invertible ones in ``[-lw, lw]`` and
    degree-0 ones up to the window.  Each other one ranges up to what is
    left of ``d``, largest degree first, and the last, of least degree, is
    solved for.  Generators ``order[k:]`` reach only multiples of the gcd
    ``reach[k]`` of their degrees, which prunes; the tuples are sorted last.
    """
    gens, lw, top = ring.generators, ring.laurent_window, ring.degree_window
    order = sorted(range(len(gens)), key=lambda i: (
        not gens[i].invertible and gens[i].degree > 0, -gens[i].degree
    ))
    reach = [gcd(*(gens[i].degree for i in order[k:])) for k in range(len(order) + 1)]
    out = []
    acc = [0] * len(gens)

    def rec(k: int, remaining: int) -> None:
        if remaining % reach[k] if reach[k] else remaining:
            return
        if k == len(order):
            out.append(tuple(acc))
            return
        i = order[k]
        g = gens[i]
        if g.invertible:
            span = range(-lw, lw + 1)
        elif not g.degree:
            span = range(top + 1)
        elif k == len(order) - 1:
            span = (remaining // g.degree,) if remaining >= 0 else ()
        else:
            span = range(remaining // g.degree + 1)
        for e in span:
            acc[i] = e
            rec(k + 1, remaining - e * g.degree)
        acc[i] = 0

    rec(0, d)
    return tuple(sorted(out))


class RingElement:
    """Finite sum of monomial terms with base ring coefficients.

    ``terms`` maps exponent tuples that pass ``ring.check_exps`` to
    coefficients that ``ring.base.normalize`` leaves unchanged; the
    constructor drops the zero ones and trusts the rest.  Outside input
    enters through ``GradedRing.element``, which checks both.  Terms never
    change after construction: no module assigns to ``terms`` outside a
    constructor, so the hash, the degree and ``ordered_terms`` are each
    computed once.
    """

    __slots__ = ("ring", "terms", "_hash", "_degree", "_ordered")

    def __init__(self, ring: GradedRing, terms):
        self.ring = ring
        self.terms = {exps: c for exps, c in terms.items() if c}
        self._hash = self._degree = self._ordered = None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Degree of a homogeneous element, kept once computed; None for zero."""
        if self._degree is None:
            degs = {self.ring.monomial_degree(e) for e in self.terms}
            if len(degs) > 1:
                raise NonHomogeneous("element %s has mixed degrees" % (self,))
            self._degree = degs.pop() if degs else None
        return self._degree

    def ordered_terms(self) -> tuple:
        """``tuple(terms.items())``, built once: the key, in term order, of
        this polynomial's cached facts, row blocks and ideal contexts."""
        if self._ordered is None:
            self._ordered = tuple(self.terms.items())
        return self._ordered

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


@lru_cache(maxsize=None)
def _degree_index(ring: GradedRing, d: int):
    """``{exps: column}`` on ``degree_exps(d)``, shared: no caller may change it."""
    return {e: j for j, e in enumerate(ring.degree_exps(d))}


@lru_cache(maxsize=None)
def _poly_facts(ring: GradedRing, terms: tuple):
    """The degree of the nonzero homogeneous g with ``terms``, its
    ``ordered_terms()``, and ``cleared_coefficients([g])``, once per process."""
    g = RingElement(ring, dict(terms))
    (coeffs,), scale = cleared_coefficients([g])
    return g.degree(), coeffs, scale


@lru_cache(maxsize=None)
def _row_block(ring: GradedRing, terms: tuple, d: int):
    """``(rows, monomials, scale)``: for the polynomial g with ``terms``,
    ``g.ordered_terms()``, the sparse ``int`` rows g * m on
    ``degree_exps(d)`` for the monomials m of degree d - |g| whose product
    with g fits the window, in monomial order, those m, and the
    ``cleared_coefficients`` scale of g alone.  The cache keys on the terms
    in their order, not on g's value, so each row lists its columns in the
    order of g's own terms, whichever equal polynomial came first.  Built
    once per process and shared by every ideal slice, regularity check and
    Koszul d_1: no caller may change it."""
    deg, coeffs, scale = _poly_facts(ring, terms)
    if d - deg > ring.degree_window:
        return (), (), scale
    index = _degree_index(ring, d)
    ms = ring.degree_exps(d - deg)
    # for each m, the column of m * e for each term e of g, None outside the window
    products = (map(tuple, map(map, repeat(add), ms, repeat(e))) for e, _ in terms)
    cols = list(zip(*(map(index.get, prods) for prods in products)))
    fits = [None not in c for c in cols]
    rows = tuple(map(dict, map(zip, compress(cols, fits), repeat(coeffs))))
    return rows, tuple(compress(ms, fits)), scale


class IdealContext:
    """Canonical reduction data for one ideal in one degree.

    ``rows`` are tagged ``("gen", i, m)`` (generator ``i`` times monomial
    ``m``, in monomial order) or ``("relation", i, m)``, in that order: all
    ``gen`` rows come first.  Each row is sparse, ``{col: value}`` on the
    monomials ``exps``, and stores no zero.  Its values are ``int``: the
    coefficients of the generators and relations times one common multiple
    ``scale`` of their denominators, a p-unit that is 1 over Z, F_p and
    Z/m, so the rows span the ideal's slice over the base.  Each
    polynomial's rows are its ``_row_block``, rescaled where its scale is
    not ``scale``, so contexts share rows with each other and with the
    regularity check: no consumer may change a row.  Vectors, as
    ``vector`` builds them, are sparse on ``exps`` too, through the shared,
    read-only ``index``.  The rows carry nothing for the base itself:
    ``linalg`` works mod p over F_p and adds the multiples of m over Z/m.
    ``scale`` comes from each polynomial's ``_poly_facts``, and the blocks,
    ``rows`` and ``lattice`` are built on first read: a caller that needs
    only the ``columns`` builds no rows, one that needs only the rows builds
    no lattice, and ``residue_lattice`` builds no block it skips.
    """

    def __init__(self, ring: GradedRing, gens, d: int):
        self.ring = ring
        self.exps = ring.degree_exps(d)
        self.index = _degree_index(ring, d)
        self.width = len(self.exps)
        gens = tuple(gens)
        polys = gens + ring.relations
        for g in polys:
            if g.ring != ring:
                raise MixedRings("ideal generator from a different ring")
        self._ngens, self._d = len(gens), d
        self._polys = [(gi, g) for gi, g in enumerate(polys) if g]

    @cached_property
    def scale(self):
        """The lcm of each polynomial's ``_poly_facts`` scale, read on first use."""
        return lcm(*(_poly_facts(self.ring, g.ordered_terms())[2] for _, g in self._polys))

    @cached_property
    def _blocks(self):
        """``(i, _row_block)`` for each nonzero polynomial i, built on first read."""
        return [(gi, _row_block(self.ring, g.ordered_terms(), self._d)) for gi, g in self._polys]

    @cached_property
    def rows(self):
        """The blocks' rows in order, each rescaled to ``scale``, built on first read."""
        out = []
        for _, (rows, _, s) in self._blocks:
            k = self.scale // s
            out.extend(rows if k == 1 else ({j: k * x for j, x in r.items()} for r in rows))
        return out

    @cached_property
    def tags(self):
        """The tag of each row, built on first read."""
        n = self._ngens
        return [("gen" if i < n else "relation", i, m) for i, (_, ms, _) in self._blocks for m in ms]

    @cached_property
    def columns(self):
        """The columns of ``rows`` when each polynomial is a unit times a monomial; else None."""
        is_unit = self.ring.base.is_unit
        if all(len(g.terms) == 1 and is_unit(*g.terms.values()) for _, g in self._polys):
            return {j for _, (rows, _, _) in self._blocks for row in rows for j in row}

    @cached_property
    def lattice(self):
        return lattice_for(self.ring.base, self.rows, self.width)

    @cached_property
    def residue_lattice(self):
        """The span of ``rows`` mod the prime p of F_p or Z_(p), built on
        first read; over F_p it is ``lattice`` itself.  Over Z_(p) it is
        built on the blocks, p-unit multiples of their rows, and skips, before
        building it, each block whose coefficients, which all its rows
        share, vanish mod p."""
        ring, p = self.ring, self.ring.base.p
        field = BaseRing.prime_field(p)
        if field == ring.base:
            return self.lattice
        keep = (g.ordered_terms() for _, g in self._polys)
        keep = [t for t in keep if any(x % p for x in _poly_facts(ring, t)[1])]
        return lattice_for(field, [r for t in keep for r in _row_block(ring, t, self._d)[0]], self.width)

    def vector(self, element):
        """The coefficients of ``element``, of this context's degree, as a
        sparse vector on ``exps``."""
        try:
            return {self.index[e]: c for e, c in element.terms.items()}
        except KeyError:
            raise SemanticError("element has terms outside the given basis") from None

    def solve_vector(self, vec):
        """Pairs ``(tag, c)`` writing ``vec`` as the sum of ``c`` times the
        multiple each tag names, before ``scale``, over the base, each ``c``
        nonzero and canonical; or None.

        Over Z/m the lattice's own multiples of m come after the tagged rows,
        at indices past ``tags``, and are dropped, being zero over Z/m."""
        sol = self.lattice.solve(vec)
        if sol is None:
            return None
        S, D = sol
        normalize, scale, tags = self.ring.base.normalize, self.scale, self.tags
        # S is not reduced over F_p and Z/m, so x may normalize to 0
        return [
            (tags[i], c)
            for i in sorted(S)
            if i < len(tags)
            and (c := normalize(S[i] * scale if D == 1 else Fraction(S[i] * scale, D)))
        ]

    def quotient_entry(self):
        """(free rank, nontrivial invariant factors) of this graded piece."""
        return module_invariants(self.ring.base, self.rows, self.width)


@lru_cache(maxsize=None)
def _cached_context(ring: GradedRing, gens: tuple, d: int, terms: tuple) -> IdealContext:
    """Keyed on ``terms`` too, each generator's terms in order, as equal
    ``gens`` may list them otherwise: the rows follow the gens as given."""
    return IdealContext(ring, gens, d)


def ideal_context(ring: GradedRing, gens, d: int) -> IdealContext:
    gens = tuple(gens)
    return _cached_context(ring, gens, d, tuple(g.ordered_terms() for g in gens))


@lru_cache(maxsize=None)
def split_ideal(ring: GradedRing, gens: tuple):
    """``(c, killed)`` when ``ring`` has no relations and the nonzero
    ``gens`` are at most one constant c (0 for none) and unit multiples of
    non-invertible generators, ``killed`` their indices; else None.

    Such an ideal splits by coordinates: its degree-d slice is spanned by
    the c * e_m and the e_m of the monomials m on a killed x_i, as m / x_i
    lies in the window with m.  So R/I is the (Laurent) polynomial ring over
    base/(c) on the other generators, and a residue is read off each
    coordinate alone, with no domain needed; ``ideals._passes_by_structure``
    adds the domain test that its certificate needs."""
    if ring.relations:
        return None
    constants, killed = [], set()
    for g in filter(None, gens):
        (exps, a), *rest = g.terms.items()
        i = exps.index(1) if 1 in exps and exps.count(0) == len(exps) - 1 else None
        if not rest and not any(exps):
            constants.append(a)
        elif rest or i is None or ring.generators[i].invertible or not ring.base.is_unit(a):
            return None
        else:
            killed.add(i)
    return (constants[0] if constants else 0, frozenset(killed)) if len(constants) <= 1 else None


@lru_cache(maxsize=None)
def _constant_lattice(base: BaseRing, c):
    """The width-1 lattice of the ideal (c) of ``base``: over Z_(p) (c) is
    generated by c's numerator, and over Z/m ``lattice_for`` adds m."""
    return lattice_for(base, [{0: c.numerator}] if c else [], 1)


def normal_form(element: RingElement, gens) -> RingElement:
    """Canonical residue of a homogeneous element modulo an ideal slice.

    The residue is zero exactly when the element lies in the ideal's span
    within the window.  When ``split_ideal`` reads the ideal, the slice
    splits by coordinates and none is built: each term is checked against
    the window as the slice would check it, the terms on killed generators
    drop, and each other coefficient reduces alone on the lattice of (c).
    Unlike the regularity certificate this needs no domain: base/(c) may
    have zero divisors, as Z/4 has.
    """
    ring = element.ring
    for g in gens:
        if isinstance(g, RingElement) and g.ring != ring:
            raise MixedRings("ideal generators from a different ring")
    if element.is_zero():
        return element
    if not element.is_homogeneous():
        raise NonHomogeneous("normal_form needs a homogeneous element")
    normalize, d = ring.base.normalize, element.degree()
    # The lattices answer each canonical residue as integers N over one unit
    # D: ints over Z, in [0, pivot), inside [0, m), over Z/m, residues mod p
    # over F_p, and over Z_(p) numerators over a p-unit.  This exit and
    # IdealContext.solve_vector are the only places that divide, and
    # normalize gives each coefficient its base ring's type.
    split = split_ideal(ring, tuple(gens))
    if split is not None:
        ring.check_degree(d)
        c, killed = split
        lattice, out = _constant_lattice(ring.base, c), {}
        for exps in sorted(element.terms):  # the slice's order
            try:
                ring.check_exps(exps)
            except (SemanticError, WindowOverflow):
                raise SemanticError("element has terms outside the given basis") from None
            if not any(exps[i] for i in killed):
                N, D = lattice.reduce({0: element.terms[exps]})
                out[exps] = normalize(N.get(0, 0) if D == 1 else Fraction(N.get(0, 0), D))
        return RingElement(ring, out)
    ctx = ideal_context(ring, gens, d)
    N, D = ctx.lattice.reduce(ctx.vector(element))
    exps = ctx.exps
    return RingElement(
        ring, {exps[j]: normalize(N[j] if D == 1 else Fraction(N[j], D)) for j in sorted(N)}
    )


def normal_form_any(element: RingElement, gens) -> RingElement:
    """Componentwise normal form; accepts inhomogeneous elements."""
    out = element.ring.zero()
    for comp in element.homogeneous_components().values():
        out = out + normal_form(comp, gens)
    return out


class QuotientRing:
    """View of R/I with arithmetic done through canonical residues.

    It is also the coefficient ring of the Clifford and exterior algebras
    over R/I: ``coerce``, ``render`` and ``degree_of`` serve them next to
    the arithmetic, and each residue it returns is zero exactly when it is
    falsy, which the algebras test in place of ``is_zero``.  Its one memo
    is ``nf``'s, element to residue: ``add``, ``mul`` and ``neg`` reduce
    the raw result through it, so a product that leaves the window raises
    each time it is asked.
    """

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

    def coerce(self, v) -> RingElement:
        """The residue of ``v``, an ``int``, ``Fraction`` or element of R."""
        if isinstance(v, (int, Fraction)):
            v = self.ring.constant(v)
        if not isinstance(v, RingElement) or v.ring != self.ring:
            raise SemanticError("coefficient outside the quotient ring")
        return self.nf(v)

    render = staticmethod(repr)

    def degree_of(self, a: RingElement):
        return a.degree()

    def eq(self, a: RingElement, b: RingElement) -> bool:
        return self.nf(a - b).is_zero()

    def one(self) -> RingElement:
        if self._one is None:
            self._one = self.nf(self.ring.one())
        return self._one

    def zero(self) -> RingElement:
        return self._zero

    def add(self, a, b):
        return self.nf(a + b)

    def mul(self, a, b):
        return self.nf(a * b)

    def neg(self, a):
        return self.nf(-a)

    def entry(self, d: int):
        """(free rank, invariant factors) of the degree-d graded piece."""
        return ideal_context(self.ring, self.ideal, d).quotient_entry()

    def is_trivial(self) -> bool:
        return self.nf(self.ring.one()).is_zero()

