"""Regular sequences, Koszul complexes and ideal decompositions.

All computations are degreewise and windowed.  Graded pieces of quotient
modules are presented as integer, p-local or F_p lattices: a slice is a span
``Z`` of coefficient rows together with a relation span ``B``, and homology
or quotient invariants come from Smith normal form of ``B`` written in a
basis of ``Z``.  An ideal's span in one degree is the lazy lattice of its
``ring.IdealContext``, never rebuilt here.  Nothing here branches on the
base ring: ``linalg.lattice_for``, ``linalg.module_invariants``,
``linalg.kernel_basis`` and ``linalg.residue_prime`` are the one place
where it picks the integer, the p-local or the prime-field algebra.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import (
    ConditionIIFails,
    EmptySequence,
    MixedRings,
    NonHomogeneous,
    NotVerifiedRegular,
    SemanticError,
    WindowOverflow,
)
from .linalg import (
    FieldLattice,
    _row_combination,
    common_denominator,
    kernel_basis,
    lattice_for,
    lattice_intersection_rows,
    lift_rank,
    module_invariants,
    modulus_rows,
    residue_prime,
    sparse_row,
)
from .ring import GradedRing, QuotientRing, RingElement, cleared_coefficients, ideal_context


# -- sequence and ideal validation ------------------------------------


def checked_sequence(ring: GradedRing, elements, allow_empty=False):
    elems = tuple(elements)
    if not elems and not allow_empty:
        raise EmptySequence("a non-empty sequence of elements is required")
    for e in elems:
        if not isinstance(e, RingElement):
            raise SemanticError("sequence entries must be ring elements")
        if e.ring != ring:
            raise MixedRings("sequence entry from a different ring")
        if not e.is_homogeneous():
            raise NonHomogeneous("sequence entries must be homogeneous")
        d = e.degree()
        if d is not None and d % 2 != 0:
            raise SemanticError("sequence entries must have even degree")
    return elems


@dataclass(frozen=True)
class HomogeneousIdeal:
    """Finitely generated ideal with homogeneous even-degree generators."""

    ring: GradedRing
    generators: tuple

    def __init__(self, ring, generators):
        gens = checked_sequence(ring, generators)
        for g in gens:
            if g.is_zero():
                raise SemanticError("ideal generators must be nonzero")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", gens)


def _gens(ring, ideal):
    if isinstance(ideal, HomogeneousIdeal):
        if ideal.ring != ring:
            raise MixedRings("ideal belongs to a different ring")
        return ideal.generators
    return checked_sequence(ring, ideal, allow_empty=True)


# -- module entries ---------------------------------------------------


@dataclass(frozen=True)
class ModuleEntry:
    """One graded piece: free rank plus nontrivial invariant factors."""

    free_rank: int = 0
    factors: tuple = ()

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.factors

    def dimension_over(self, p: int):
        """F_p dimension when the piece is an F_p vector space, else None."""
        if self.free_rank != 0 or any(f != p for f in self.factors):
            return None
        return len(self.factors)


@dataclass
class GradedModuleReport:
    """Degreewise table of module invariants within a scan range."""

    scanned: tuple
    entries: dict = field(default_factory=dict)

    def entry(self, d: int) -> ModuleEntry:
        return self.entries.get(d, ModuleEntry())

    def nonzero_degrees(self):
        return sorted(d for d, e in self.entries.items() if not e.is_zero())

    def as_dict(self):
        return {
            d: {"free_rank": e.free_rank, "factors": list(e.factors)}
            for d, e in sorted(self.entries.items())
            if not e.is_zero()
        }


def quotient_invariants(z_rows, b_rows, width, base) -> ModuleEntry:
    """Invariants of Z/B for lattices B <= Z inside a rank-``width`` slice."""
    if width == 0:
        return ModuleEntry()
    return _lattice_quotient(lattice_for(base, z_rows, width), b_rows, base)


def _lattice_quotient(lat, b_rows, base) -> ModuleEntry:
    """Invariants of L/B for the lattice ``lat`` = L and rows B inside it:
    B written on ``lat.integer_basis()``, then Smith form.

    The Smith form takes the integer coordinates without their unit
    denominators, as a unit multiple of a row keeps the span.  Over Z/m
    ``lat`` is the integer lift L + m * Z^w, so B is lifted too, by
    ``modulus_rows`` in ambient coordinates: m * e_j on the basis of L is
    not m * e_j.  (The m * e_j that ``module_invariants`` adds on the
    coordinates lie in m * L, which those rows already span.)  Over the
    other bases ``modulus_rows`` is empty."""
    coords = [lat.integer_coordinates(b) for b in b_rows + modulus_rows(base, lat.width)]
    if None in coords:
        raise SemanticError("relation span escapes the cycle span")
    return ModuleEntry(*module_invariants(base, [row for row, _ in coords], lat.rank))


def _is_unit_row(coeffs, r, rows, lat, width, den=1) -> bool:
    """Whether sum of ``(c_k - den * [k == r]) * rows[k]`` lies in ``lat``.

    That is, for a unit ``den``, whether ``coeffs / den`` is row ``r`` of
    the identity modulo ``lat``; with ``r`` None, whether it is the zero
    row.  The sum is taken on plain ``int`` values: every lattice accepts
    any integer representative of a vector over F_p or Z/m.
    """
    if r is not None:
        coeffs = list(coeffs)
        coeffs[r] -= den
    diff = _row_combination(coeffs, rows, [0] * width)
    return not any(diff) or lat.contains(diff)


# -- regular sequences ------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    first_failure: int | None
    failure_degree: int | None
    checked_up_to: int
    reason: str = ""


def _cycle_rows(base, map_rows, target_rel_rows, source_width, target_width):
    """Generators of {x : x * M in span(target relations)} over ``base``,
    for ``int`` rows of M and of the relations."""
    if target_width == 0 or not map_rows:
        return [[1 if i == j else 0 for j in range(source_width)] for i in range(source_width)]
    kernel = kernel_basis(base, map_rows + target_rel_rows, target_width)
    return [x for x in (k[: len(map_rows)] for k in kernel) if any(x)]


def _has_kernel(base, rows, used, src, tgt, p):
    """Whether some y on the ``used`` monomials has ``y * rows`` in the
    target slice ``tgt`` but ``y`` not in the source slice ``src``: by a
    rank count mod ``p`` when ``p`` is given, else on a kernel basis."""
    pos = {m: j for j, m in enumerate(src.exps)}
    if p is None:
        for vec in _cycle_rows(base, rows, tgt.rows, len(used), tgt.width):
            full = [0] * src.width
            for val, m in zip(vec, used):
                full[pos[m]] = val
            if not src.contains_vector(full):
                return True
        return False
    joint = []
    for row, m in zip(rows, used):
        e = [0] * src.width
        e[pos[m]] = 1
        joint.append(tgt.residue_lattice.reduce(row)[0] + src.residue_lattice.reduce(e)[0])
    pivots = FieldLattice(joint, tgt.width + src.width, p).pivots
    return bool(pivots) and pivots[-1] >= tgt.width  # a pivot past tgt's block


@lru_cache(maxsize=None)
def _regularity(ring: GradedRing, elems: tuple, window: int) -> RegularityReport:
    """Entry by entry, whether multiplication by the entry x is injective
    on R/I, I the ideal of the earlier entries, in each degree d of the
    window, and whether R/I stays nonzero.

    With M the rows x * m for the ``used`` monomials m of degree d (those
    whose product fits) and L_s, L_t the slices of I in degrees d and
    d + |x|, x passes in degree d when y * M in L_t implies y in L_s.  The
    kernel path tests a kernel basis of y -> y * M mod L_t.  The field path
    runs when ``linalg.residue_prime`` gives a prime p: over F_p, and over
    Z_(p) after a constant entry c with v_p(c) = 1.  It builds no kernel:

    * Lift.  The rows c * m put p * Z^w in L_s and L_t, so whether y * M
      lies in L_t and y in L_s depends on y mod p only: a y over Z_(p)
      reduces mod p, and a y mod p lifts to any integer vector.  So the
      check holds over Z_(p) iff it holds over F_p.
    * Rank.  Over F_p the check is ker phi <= ker pi, for phi(y) = y * M
      mod L_t and pi(y) = y mod L_s, and as ker(phi, pi) = ker phi meet
      ker pi, it holds iff rank(phi, pi) = rank phi.  Reduction modulo a
      span is linear with that span as kernel, so the rows (x * m mod L_t,
      e_m mod L_s) span the image of (phi, pi), and rank phi is the number
      of their pivots in the first block: x passes iff none lies past it.
      The rows are the ``used`` monomials, as for the kernel, so the count
      is exact inside the window too.
    * Not after p^2 * unit.  Then a slice need not hold p * Z^w, and a
      vector mod p need not lift: in Z_(2)[x, v^{±1}] with |x| = 2, |v| = 4
      and Laurent window 1, the degree-0 slice of (4, u), u = 1 + 2x^2/v,
      holds 1 mod 2 but not 1, so a second entry u, which kills 1, would
      pass mod 2.  Such entries, and Z and Z/m, keep the kernel path.

    Both paths decide each degree alike, so the report, ``failure_degree``
    included, does not depend on the path.

    The first entry of a ring without relations over a domain (Z, Z_(p),
    F_p) passes with no scan: L_s and L_t are 0 over the base, and y * M is
    the product x * y (a ``used`` m has all of x * m in the window) in a
    Laurent polynomial ring over a domain, so y * M = 0 forces y = 0.  Z/4
    is no domain: there 2 * 2 = 0.
    """
    one = (0,) * len(ring.generators)
    constants = []  # the coefficients of the constant entries so far
    for k, x in enumerate(elems, start=1):
        prev = elems[: k - 1]
        if x.is_zero():
            return RegularityReport(False, k, None, window, "zero entry")
        p = residue_prime(ring.base, constants)
        dx = x.degree()
        no_scan = not prev and not ring.relations and ring.base.is_domain
        for d in () if no_scan else ring.even_degrees(window - dx):
            # The leading ("gen", 0, m) rows of the principal slice are x * m
            # for each monomial m of degree d whose product fits.
            mult = ideal_context(ring, (x,), d + dx)
            used = [m for kind, _, m in mult.tags if kind == "gen"]
            if used and _has_kernel(
                ring.base, mult.rows[: len(used)], used,
                ideal_context(ring, prev, d), ideal_context(ring, prev, d + dx), p,
            ):
                return RegularityReport(
                    False,
                    k,
                    d,
                    window,
                    "multiplication by entry %d has kernel in degree %d" % (k, d),
                )
        if QuotientRing(ring, elems[:k]).is_trivial():
            return RegularityReport(
                False, k, None, window, "quotient vanishes after entry %d" % k
            )
        if set(x.terms) == {one}:
            constants.append(x.terms[one])
    return RegularityReport(True, None, None, window, "")


def check_regular_sequence(ring: GradedRing, elements, window: int | None = None):
    """Degreewise verification that the sequence is regular inside the window."""
    elems = checked_sequence(ring, elements)
    top = ring.degree_window if window is None else min(window, ring.degree_window)
    return _regularity(ring, elems, top)


# -- Koszul complexes -------------------------------------------------


class KoszulComplex:
    """Exterior-basis Koszul complex of a sequence, tensored with R/K.

    The differentials hold ``int`` entries: the sequence's coefficients
    times one common multiple ``scale`` of their denominators, from the
    ``ring.cleared_coefficients`` that ideal slices use too.  ``scale`` is
    a p-unit over Z_(p) and 1 over the other bases, and over F_p and Z/m
    an entry is any integer of its residue class, so the rows are ``scale``
    times the differential over the base.  Scaling by a unit keeps the
    kernels, the spans and the check that d∘d lies in the relations.
    """

    def __init__(self, ring: GradedRing, j_gens, k_gens=(), window: int | None = None):
        self.ring = ring
        self.j_gens = checked_sequence(ring, j_gens)
        self.k_gens = _gens(ring, k_gens)
        for g in self.j_gens:
            if g.is_zero():
                raise SemanticError("Koszul sequence entries must be nonzero")
        self.window = ring.degree_window if window is None else min(window, ring.degree_window)
        self.length = len(self.j_gens)
        self._degs = [g.degree() for g in self.j_gens]
        self._coeffs, self.scale = cleared_coefficients(self.j_gens)
        self._differentials: dict = {}  # (i, q) -> differential_rows(i, q)

    def subsets(self, i: int):
        return list(combinations(range(self.length), i))

    def shift(self, subset) -> int:
        return sum(self._degs[j] for j in subset)

    def chain_slice(self, i: int, q: int):
        """Basis of the internal degree-q slice of the i-th chain module."""
        if i < 0 or i > self.length:
            return []
        out = []
        for S in self.subsets(i):
            d = q - self.shift(S)
            if d > self.ring.degree_window:
                continue
            for m in self.ring.degree_exps(d):
                out.append((S, m))
        return out

    def relation_rows(self, i: int, q: int):
        """Coefficient-quotient relation rows for the (i, q) slice."""
        basis = self.chain_slice(i, q)
        index = {sm: j for j, sm in enumerate(basis)}
        rows = []
        by_subset: dict = {}
        for S, m in basis:
            by_subset.setdefault(S, []).append(m)
        for S in by_subset:
            d = q - self.shift(S)
            ctx = ideal_context(self.ring, self.k_gens, d)
            for row in ctx.rows:
                out = [0] * len(basis)
                for val, m in zip(row, ctx.exps):
                    if val:
                        out[index[(S, m)]] = val
                rows.append(out)
        return rows

    def differential_rows(self, i: int, q: int):
        """Matrix rows of d_i on the degree-q slice, with truncation flag.

        Each slice is built once per complex, and every caller reads that
        one copy, so no caller may change it.
        """
        key = (i, q)
        if key not in self._differentials:
            self._differentials[key] = self._differential(i, q)
        return self._differentials[key]

    def _differential(self, i: int, q: int):
        src = self.chain_slice(i, q)
        tgt = self.chain_slice(i - 1, q)
        index = {sm: j for j, sm in enumerate(tgt)}
        rows = []
        truncated = False
        for S, m in src:
            row = [0] * len(tgt)
            for t, j in enumerate(S):
                rest = tuple(x for x in S if x != j)
                sign = -1 if t % 2 else 1
                for exps, c in zip(self.j_gens[j].terms, self._coeffs[j]):
                    prod = tuple(a + b for a, b in zip(m, exps))
                    key = (rest, prod)
                    if key not in index:
                        truncated = True
                        continue
                    row[index[key]] += sign * c
            rows.append(row)
        return rows, truncated

    def validate_squares(self, q: int) -> None:
        """d∘d lands in the relation span of the target slice.

        Each row of d_i is combined in integers with the sparse rows of
        d_{i-1}.  Over F_p and Z/m a product that vanishes only mod p or m
        still passes, since the relation lattice works mod p or holds the
        multiples of m.
        """
        base = self.ring.base
        for i in range(2, self.length + 1):
            width = len(self.chain_slice(i - 2, q))
            if not width or not self.chain_slice(i - 1, q):
                continue
            d_i, t1 = self.differential_rows(i, q)
            d_im1, t2 = self.differential_rows(i - 1, q)
            sparse = [sparse_row(row) for row in d_im1]
            lat = None  # the relation lattice, built for the first nonzero row
            for row in d_i:
                comp = [0] * width
                for a, mid in zip(row, sparse):
                    if a:
                        for j, x in mid.items():
                            comp[j] += a * x
                if not any(comp):
                    continue
                if lat is None:
                    lat = lattice_for(base, self.relation_rows(i - 2, q), width)
                if not lat.contains(comp):
                    if t1 or t2:
                        raise WindowOverflow(
                            "Koszul differentials truncated; enlarge the window"
                        )
                    raise SemanticError("Koszul differential does not square to zero")

    def homology_entry(self, i: int, q: int) -> ModuleEntry:
        width = len(self.chain_slice(i, q))
        if not width:
            return ModuleEntry()
        base = self.ring.base
        d_i, truncated = self.differential_rows(i, q)
        d_up, trunc_up = self.differential_rows(i + 1, q)
        if truncated or trunc_up:
            raise WindowOverflow(
                "Koszul differential truncated at the window boundary"
            )
        z_rows = _cycle_rows(
            base, d_i, self.relation_rows(i - 1, q), width, len(self.chain_slice(i - 1, q))
        )
        b_rows = d_up + self.relation_rows(i, q)
        return quotient_invariants(z_rows, b_rows, width, base)


def tor(ring: GradedRing, j_gens, k_gens, i: int, window: int | None = None):
    """Degreewise Tor_i(R/J, R/K) through the Koszul resolution of R/J."""
    if i < 0:
        raise SemanticError("homological degree must be >= 0")
    jseq = checked_sequence(ring, _gens(ring, j_gens))
    top = ring.degree_window if window is None else min(window, ring.degree_window)
    reg = check_regular_sequence(ring, jseq, top)
    if not reg.regular:
        raise NotVerifiedRegular(
            "sequence not verified regular (fails at entry %s)" % (reg.first_failure,)
        )
    cx = KoszulComplex(ring, jseq, _gens(ring, k_gens), top)
    degrees = list(ring.even_degrees(top))
    report = GradedModuleReport((degrees[0] if degrees else 0, top))
    if i > cx.length:
        return report
    for q in degrees:
        cx.validate_squares(q)
        entry = cx.homology_entry(i, q)
        if not entry.is_zero():
            report.entries[q] = entry
    return report


def _product_gens(ring, a_gens, b_gens):
    out = []
    for g in a_gens:
        for h in b_gens:
            # a zero generator has no degree and adds nothing to the product
            if not (g.is_zero() or h.is_zero()) and g.degree() + h.degree() <= ring.degree_window:
                out.append(g * h)
    return tuple(out)


def tor1_equals_intersection_over_product(
    ring: GradedRing, j_gens, k_gens, window: int | None = None
) -> bool:
    """Whether Tor_1 agrees degreewise with (J∩K)/(J·K) inside the window."""
    jseq = _gens(ring, j_gens)
    kseq = _gens(ring, k_gens)
    top = ring.degree_window if window is None else min(window, ring.degree_window)
    t1 = tor(ring, jseq, kseq, 1, top)
    prod = _product_gens(ring, jseq, kseq)
    for q in ring.even_degrees(top):
        rows_j = ideal_context(ring, jseq, q).rows
        rows_k = ideal_context(ring, kseq, q).rows
        width = len(ring.degree_exps(q))
        inter = lattice_intersection_rows(ring.base, rows_j, rows_k, width)
        entry = quotient_invariants(inter, ideal_context(ring, prod, q).rows, width, ring.base)
        if entry != t1.entry(q):
            return False
    return True


def check_condition_ii(ring: GradedRing, ideals, window: int | None = None):
    """Product equals intersection for each ideal against its predecessors.

    Returns one boolean per index k = 2..n.
    """
    fams = [_gens(ring, i) for i in ideals]
    if not fams:
        raise EmptySequence("at least one ideal is required")
    for fam in fams:
        if not fam:
            raise EmptySequence("ideals must have at least one generator")
    top = ring.degree_window if window is None else min(window, ring.degree_window)
    results = []
    for k in range(2, len(fams) + 1):
        prev = sum(fams[: k - 1], ())
        tail = fams[k - 1]
        prod = _product_gens(ring, prev, tail)
        holds = True
        for q in ring.even_degrees(top):
            width = len(ring.degree_exps(q))
            rows_p = ideal_context(ring, prev, q).rows
            rows_t = ideal_context(ring, tail, q).rows
            inter = lattice_intersection_rows(ring.base, rows_p, rows_t, width)
            if not inter:
                continue
            lat = ideal_context(ring, prod, q).lattice
            if not all(lat.contains(g) for g in inter):
                holds = False
                break
        results.append(holds)
    return results


# -- conormal decomposition -------------------------------------------


@dataclass
class DecompositionDegree:
    degree: int
    module: ModuleEntry
    summands: list
    verified: bool


@dataclass
class ConormalDecomposition:
    """I/I² split into per-ideal summands, verified degreewise."""

    degrees: dict
    verified: bool


def decompose_conormal(ring: GradedRing, ideals, window: int | None = None):
    """Split I/I² into one summand per ideal, with verified inverse maps.

    In each degree the forward map splits every basis vector of I into the
    parts its single ideals generate, and the backward map writes every
    summand basis vector in the basis of I; both are exact coordinates in
    the slice lattices of the ideal contexts.  A degree is verified when
    backward∘forward is the identity modulo I² and forward∘backward the
    identity on each summand modulo its relations.
    """
    fams = [_gens(ring, i) for i in ideals]
    for fam in fams:
        if not fam:
            raise EmptySequence("ideals must have at least one generator")
    cond = check_condition_ii(ring, ideals, window)
    if not all(cond):
        bad = 2 + cond.index(False)
        raise ConditionIIFails(
            "product-intersection condition fails at ideal %d" % bad
        )
    top = ring.degree_window if window is None else min(window, ring.degree_window)
    base = ring.base
    allgens = sum(fams, ())
    owner = [idx for idx, fam in enumerate(fams) for _ in fam]
    prod_all = _product_gens(ring, allgens, allgens)
    degrees = {}
    all_ok = True
    for q in ring.even_degrees(top):
        width = len(ring.degree_exps(q))
        if width == 0:
            continue
        ctx_all = ideal_context(ring, allgens, q)
        lat = ctx_all.lattice
        # A degree is listed when the integer lift of I's slice is nonzero,
        # which over F_p and Z/m is every degree of positive width.
        if not lift_rank(lat):
            continue
        row_owner = [owner[gi] if kind == "gen" else None for kind, gi, _ in ctx_all.tags]
        rel_all = ideal_context(ring, prod_all, q)
        a_entry = _lattice_quotient(lat, rel_all.rows, base)
        ctxs = [ideal_context(ring, fam, q) for fam in fams]
        rels = [ideal_context(ring, _product_gens(ring, allgens, fam), q) for fam in fams]
        entries = [_lattice_quotient(c.lattice, r.rows, base) for c, r in zip(ctxs, rels)]
        a_basis = lat.integer_basis()
        bases = [c.lattice.integer_basis() for c in ctxs]
        # fwd[s][r]: the part of a_basis[r] on the generator rows of ideal s,
        # a combination of rows of ctxs[s], on that lattice's basis.  Row r
        # of the transform writes unit * a_basis[r] on the rows of ctx_all;
        # over Z/m its entries on the lattice's own multiples of m, which
        # vanish over Z/m, come last and the zip with row_owner drops them.
        sols, unit = lat.integer_transform()
        fwd, fden = common_denominator([
            [c.lattice.integer_coordinates(_row_combination(
                [x if o == s else 0 for x, o in zip(sol, row_owner)], ctx_all.rows, [0] * width
            )) for sol in sols]
            for s, c in enumerate(ctxs)
        ])
        # bwd[s][k]: basis vector k of summand s on a_basis
        bwd, bden = common_denominator(
            [[lat.integer_coordinates(b) for b in basis] for basis in bases]
        )
        back_rows = [row for rows in bwd for row in rows]
        # fwd is over fden * unit and bwd over bden, so each composite is X / den
        den = fden * unit * bden
        ok = all(
            # backward ∘ forward = identity on A modulo I² relations
            _is_unit_row(
                _row_combination([c for f in fwd for c in f[r]], back_rows, [0] * len(a_basis)),
                r, a_basis, rel_all.lattice, width, den,
            )
            for r in range(len(a_basis))
        ) and all(
            # forward ∘ backward = identity on each summand modulo its relations
            _is_unit_row(
                _row_combination(brow, fwd[s], [0] * len(bases[s])),
                r if s == idx else None, bases[s], rels[s].lattice, width, den,
            )
            for idx, rows in enumerate(bwd)
            for r, brow in enumerate(rows)
            for s in range(len(fams))
        )
        all_ok = all_ok and ok
        degrees[q] = DecompositionDegree(q, a_entry, entries, ok)
    return ConormalDecomposition(degrees, all_ok)
