"""Regular sequences, Koszul complexes and ideal decompositions.

All computations are degreewise and windowed.  Graded pieces of quotient
modules are presented as integer, p-local or F_p lattices: a slice is a span
``Z`` of coefficient rows together with a relation span ``B``, and homology
or quotient invariants come from Smith normal form of ``B`` written in a
basis of ``Z``.  Over a split R/K and a PID the Koszul complex is free, so
C/B = Z/B ⊕ C/Z for its chains C, with C/Z free, and one rank and one Smith
form per degree give Z/B.  A slice spanned by unit vectors e_m, as
``ring.IdealContext.columns`` reads it, is its set of columns: condition II
and I/I² are read off those sets where they can be.  Any other ideal's span
in one degree is the lazy lattice of its context, never rebuilt here.
Nothing here branches on the base ring: ``linalg``'s ``lattice_for``,
``module_invariants``, ``homology_invariants``, ``kernel_basis``,
``residue_prime`` and ``lift_rank`` alone pick the integer, the p-local or
the prime-field algebra.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

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
    homology_invariants,
    kernel_basis,
    lattice_for,
    lattice_intersection_rows,
    lift_rank,
    module_invariants,
    modulus_rows,
    residue_prime,
)
from .ring import (
    GradedRing, QuotientRing, RingElement, _row_block, cleared_coefficients, ideal_context,
    split_ideal,
)


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


class HomogeneousIdeal(namedtuple("HomogeneousIdeal", ("ring", "generators"))):
    """Finitely generated ideal with homogeneous even-degree generators:
    a ``GradedRing`` and the tuple of its checked nonzero generators."""

    __slots__ = ()

    def __new__(cls, ring, generators):
        gens = checked_sequence(ring, generators)
        for g in gens:
            if g.is_zero():
                raise SemanticError("ideal generators must be nonzero")
        return super().__new__(cls, ring, gens)


def _gens(ring, ideal):
    if isinstance(ideal, HomogeneousIdeal):
        if ideal.ring != ring:
            raise MixedRings("ideal belongs to a different ring")
        return ideal.generators
    return checked_sequence(ring, ideal, allow_empty=True)


# -- module entries ---------------------------------------------------


class ModuleEntry(NamedTuple):
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


class GradedModuleReport(NamedTuple):
    """Degreewise table of module invariants within a scan range."""

    scanned: tuple
    entries: dict

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


def _is_unit_row(coeffs, r, rows, lat, den=1) -> bool:
    """Whether sum of ``(c_k - den * [k == r]) * rows[k]`` lies in ``lat``,
    for sparse ``coeffs`` and ``rows``.

    That is, for a unit ``den``, whether ``coeffs / den`` is row ``r`` of
    the identity modulo ``lat``; with ``r`` None, whether it is the zero
    row.  The sum is taken on plain ``int`` values: every lattice accepts
    any integer representative of a vector over F_p or Z/m.
    """
    if r is not None:
        coeffs = dict(coeffs)
        coeffs[r] = coeffs.get(r, 0) - den
    diff = _row_combination(coeffs, rows)
    return not diff or lat.contains(diff)


# -- regular sequences ------------------------------------------------


class RegularityReport(NamedTuple):
    regular: bool
    first_failure: int | None
    failure_degree: int | None
    checked_up_to: int
    reason: str = ""


def _cycle_rows(base, map_rows, target_rel_rows, source_width, target_width):
    """Sparse generators of {x : x * M in span(target relations)} over
    ``base``, for sparse ``int`` rows of M and of the relations."""
    if target_width == 0 or not map_rows:
        return [{i: 1} for i in range(source_width)]
    kernel = kernel_basis(base, [*map_rows, *target_rel_rows], target_width)
    n = len(map_rows)
    return [x for x in ({i: v for i, v in k.items() if i < n} for k in kernel) if x]


def _has_kernel(base, rows, used, src, tgt, p):
    """Whether some y on the ``used`` monomials has ``y * rows`` in the
    target slice ``tgt`` but ``y`` not in the source slice ``src``: by a
    rank count mod ``p`` when ``p`` is given, else on a kernel basis.  The
    count reads e_m mod ``src`` off its reduced echelon form mod p: e_m when
    m is no pivot, else the negated tail of the row at pivot m."""
    cols = [src.index[m] for m in used]
    if p is None:
        return any(
            not src.lattice.contains({cols[i]: val for i, val in vec.items()})
            for vec in _cycle_rows(base, rows, tgt.rows, len(used), tgt.width)
        )
    shift, lat = tgt.width, src.residue_lattice
    if lat.rank == src.width:  # every y lies in src mod p
        return False
    at = dict(zip(lat.pivots, lat.integer_basis()))
    joint = [
        {
            **tgt.residue_lattice.reduce(row)[0],
            **({shift + k: -x for k, x in at[j].items() if k != j} if j in at else {shift + j: 1}),
        }
        for row, j in zip(rows, cols)
    ]
    pivots = FieldLattice(joint, tgt.width + src.width, p).pivots
    return bool(pivots) and pivots[-1] >= tgt.width  # a pivot past tgt's block


def _passes_by_structure(ring: GradedRing, prev: tuple, x: RingElement) -> bool:
    """Whether ``prev`` leaves a (Laurent) polynomial ring over a domain
    base/c, in which x's image, its terms on killed generators dropped and
    its coefficients taken mod c, is nonzero: see ``_regularity``."""
    split = split_ideal(ring, prev)
    if split is None:
        return False
    (c, killed), base = split, ring.base
    return base.residue_is_domain(c) and any(
        not base.divides(c, a) for exps, a in x.terms.items() if not any(exps[i] for i in killed)
    )


@lru_cache(maxsize=None)
def _regularity(ring: GradedRing, elems: tuple, window: int) -> RegularityReport:
    """Entry by entry, whether multiplication by the entry x is injective
    on R/I, I the ideal of the earlier entries, in each degree d of the
    window, and whether R/I stays nonzero.

    With M the rows x * m for the ``used`` monomials m of degree d (those
    whose product fits) and L_s, L_t the slices of I in degrees d and
    d + |x|, x passes in degree d when y * M in L_t implies y in L_s.  M is
    x's own ``_row_block``: the slice of (x) would give M times a p-unit,
    which keeps both conditions.  The kernel path tests a kernel basis of
    y -> y * M mod L_t.  The field path runs when ``linalg.residue_prime``
    gives a prime p: over F_p, and over Z_(p) after a constant entry c with
    v_p(c) = 1.  It builds no kernel:

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

    ``_passes_by_structure`` decides some passes with no scan.  When
    ``split_ideal`` reads the earlier entries as a constant c, with base/c
    a domain, and killed generators, y * M mod L_t is the product of the
    images of x and y in the (Laurent) polynomial ring over base/c on the
    other generators (a ``used`` m has all of x * m in the window).  That
    ring is a domain, so when x's image is nonzero, y * M in L_t forces y
    in L_s in every degree.  With no earlier entry this
    needs a domain base: Z/4 is none, there 2 * 2 = 0.  Only passes are
    decided: a zero image, and every other prefix, go to the scan.  The
    same certificate on the prefix through x and the element 1 proves R/I
    nonzero, as 1 has a nonzero image in base/c[...], so the ``is_trivial``
    check after x is skipped there.
    """
    one = (0,) * len(ring.generators)
    constants = []  # the coefficients of the constant entries so far
    for k, x in enumerate(elems, start=1):
        prev = elems[: k - 1]
        if x.is_zero():
            return RegularityReport(False, k, None, window, "zero entry")
        p = residue_prime(ring.base, constants)
        dx = x.degree()
        no_scan = _passes_by_structure(ring, prev, x)
        for d in () if no_scan else ring.even_degrees(window - dx):
            rows, used, _ = _row_block(ring, x.ordered_terms(), d + dx)
            if used and _has_kernel(
                ring.base, rows, used,
                ideal_context(ring, prev, d), ideal_context(ring, prev, d + dx), p,
            ):
                reason = "multiplication by entry %d has kernel in degree %d" % (k, d)
                return RegularityReport(False, k, d, window, reason)
        nonzero = _passes_by_structure(ring, elems[:k], ring.one())
        if not nonzero and QuotientRing(ring, elems[:k]).is_trivial():
            return RegularityReport(
                False, k, None, window, "quotient vanishes after entry %d" % k
            )
        if set(x.terms) == {one}:
            constants.append(x.terms[one])
    return RegularityReport(True, None, None, window, "")


def check_regular_sequence(ring: GradedRing, elements):
    """Degreewise verification that the sequence is regular inside the window."""
    return _regularity(ring, checked_sequence(ring, elements), ring.degree_window)


# -- Koszul complexes -------------------------------------------------


class KoszulComplex:
    """Exterior-basis Koszul complex of a sequence, tensored with R/K.

    The differentials and relation rows are sparse, ``{col: value}`` on the
    chain slices, and store no zero.  The differentials hold ``int``
    entries: the sequence's coefficients times one common multiple
    ``scale`` of their denominators, from the ``ring.cleared_coefficients``
    that ideal slices use too.  ``scale`` is a p-unit over Z_(p) and 1 over
    the other bases, and over F_p and Z/m an entry is any integer of its
    residue class, so the rows are ``scale`` times the differential over
    the base.  Scaling by a unit keeps the kernels, the spans and the check
    that d∘d lies in the relations.  Each chain slice is built on first
    read as its width and its blocks, and only ``chain_slice`` lists its
    (S, m).  d_1 is made of the sequence's ``_row_block`` rows themselves
    wherever an entry's own scale is ``scale``, shared and read-only like
    them.  Each slice, basis list and d_i is kept until ``release``.
    """

    def __init__(self, ring: GradedRing, j_gens, k_gens=()):
        self.ring = ring
        self.j_gens = checked_sequence(ring, j_gens)
        self.k_gens = _gens(ring, k_gens)
        for g in self.j_gens:
            if g.is_zero():
                raise SemanticError("Koszul sequence entries must be nonzero")
        self.length = len(self.j_gens)
        self._degs = [g.degree() for g in self.j_gens]
        self._coeffs, self.scale = cleared_coefficients(self.j_gens)
        self._differentials: dict = {}  # (i, q) -> differential_rows(i, q)
        self._slices: dict = {}  # (i, q) -> _chain_slice(i, q)
        self._bases: dict = {}  # (i, q) -> chain_slice(i, q)

    def shift(self, subset) -> int:
        return sum(self._degs[j] for j in subset)

    def chain_slice(self, i: int, q: int):
        """Basis (S, m) of the internal degree-q slice of the i-th chain
        module, listed once until ``release(q)``: no caller may change it."""
        key = (i, q)
        if key not in self._bases:
            self._bases[key] = [(S, m) for S, (_, ms) in self._slice(i, q)[1].items() for m in ms]
        return self._bases[key]

    def _slice(self, i: int, q: int):
        """``(width, {S: (its first column, its monomials m)})`` of slice (i, q)."""
        key = (i, q)
        if key not in self._slices:
            self._slices[key] = self._chain_slice(i, q)
        return self._slices[key]

    def _chain_slice(self, i: int, q: int):
        width, blocks = 0, {}
        for S in combinations(range(self.length), i) if i >= 0 else ():
            d = q - self.shift(S)
            if d <= self.ring.degree_window:
                ms = self.ring.degree_exps(d)
                blocks[S] = (width, ms)
                width += len(ms)
        return width, blocks

    def relation_rows(self, i: int, q: int):
        """Coefficient-quotient relation rows for the (i, q) slice, sparse."""
        rows = []
        for S, (col, _) in self._slice(i, q)[1].items():
            ctx = ideal_context(self.ring, self.k_gens, q - self.shift(S))
            rows.extend({col + j: val for j, val in row.items()} for row in ctx.rows)
        return rows

    def _free_part(self, i: int, q: int, src, tgt):
        """d_i on the degree-q slice, cut to the columns ``src`` of slice i
        and ``tgt`` of slice i - 1, each as ``_cut`` lists them."""
        col = {j: n for n, j in enumerate(tgt)}
        rows, _ = self.differential_rows(i, q)
        cut = ({col[c]: v for c, v in rows[j].items() if c in col} for j in src)
        return [row for row in cut if row]

    def _cut(self, k: int, q: int, killed):
        """The columns of slice (k, q) whose (S, m) has no ``killed`` generator in m."""
        return [col + n for col, ms in self._slice(k, q)[1].values()
                for n, m in enumerate(ms) if not any(map(m.__getitem__, killed))]

    def release(self, q: int) -> None:
        """Drop everything kept for degree q; a later read rebuilds it."""
        for memo in (self._slices, self._bases, self._differentials):
            for key in [key for key in memo if key[1] == q]:
                del memo[key]

    def differential_rows(self, i: int, q: int):
        """Matrix rows of d_i on the degree-q slice, with truncation flag.

        Each slice is built once until ``release(q)``, and every caller
        reads that one copy, so no caller may change it.
        """
        key = (i, q)
        if key not in self._differentials:
            self._differentials[key] = self._differential(i, q)
        return self._differentials[key]

    def _differential(self, i: int, q: int):
        """Row (S, m) sums (-1)^t * (scale // s_j) times row m of g_j's
        ``_row_block``, for j the t-th entry of S, on the block of S minus j.
        Where the block drops an m, whose product leaves the window, or S
        minus j has no block, the slice is truncated, and each m takes the
        terms of g_j that fit one by one.  Where S = (j,) and the multiple
        is 1, the rows are the block's own."""
        tgt = self._slice(i - 1, q)[1]
        out, truncated = [], False
        for S, (_, ms) in self._slice(i, q)[1].items():
            rows = [{} for _ in ms]
            for t, j in enumerate(S):
                rest, g = S[:t] + S[t + 1:], self.j_gens[j]
                if rest not in tgt:
                    truncated |= bool(ms)
                    continue
                col, tms = tgt[rest]
                block, used, s = _row_block(self.ring, g.ordered_terms(), q - self.shift(rest))
                sign = -1 if t % 2 else 1
                k = sign * (self.scale // s)
                if len(used) < len(ms):  # the terms that fit, on the common scale
                    truncated, k, at = True, sign, {e: n for n, e in enumerate(tms)}
                    block = [{at[p]: c for e, c in zip(g.terms, self._coeffs[j])
                              if (p := tuple(a + b for a, b in zip(m, e))) in at} for m in ms]
                elif k == 1 and not rest:  # S = (j,), its only term: share the rows
                    rows = block
                    continue
                for row, brow in zip(rows, block):
                    for c, v in brow.items():
                        row[col + c] = k * v
            out.extend(rows)
        return out, truncated

    def validate_squares(self, q: int) -> None:
        """d∘d lands in the relation span of the target slice.

        Each row of d_i is combined in integers with the rows of d_{i-1}.
        Over F_p and Z/m a product that vanishes only mod p or m still
        passes, since the relation lattice works mod p or holds the
        multiples of m.
        """
        base = self.ring.base
        for i in range(2, self.length + 1):
            width = self._slice(i - 2, q)[0]
            if not width or not self._slice(i - 1, q)[0]:
                continue
            d_i, t1 = self.differential_rows(i, q)
            d_im1, t2 = self.differential_rows(i - 1, q)
            lat = None  # the relation lattice, built for the first nonzero row
            for row in d_i:
                comp = {}
                for k, c in row.items():
                    for j, x in d_im1[k].items():
                        comp[j] = comp.get(j, 0) + c * x
                if not any(comp.values()):
                    continue
                if lat is None:
                    lat = lattice_for(base, self.relation_rows(i - 2, q), width)
                if not lat.contains({j: x for j, x in comp.items() if x}):
                    if t1 or t2:
                        raise WindowOverflow(
                            "Koszul differentials truncated; enlarge the window"
                        )
                    raise SemanticError("Koszul differential does not square to zero")

    def homology_entry(self, i: int, q: int) -> ModuleEntry:
        """H_i in degree q, in Smith form: cycles mod relations, as a lattice,
        mod boundaries and relations.  Over a split R/K (``split_ideal``) the
        relations span the (S, m) with a killed generator in m, which d keeps,
        so the complex is free on the other (S, m) and, over a PID,
        ``homology_invariants`` reads H_i off d_i and d_{i+1} cut to them;
        d∘d = 0 there, as R has no relations and a truncated d raises first."""
        width = self._slice(i, q)[0]
        if not width:
            return ModuleEntry()
        base = self.ring.base
        d_i, truncated = self.differential_rows(i, q)
        d_up, trunc_up = self.differential_rows(i + 1, q)
        if truncated or trunc_up:
            raise WindowOverflow(
                "Koszul differential truncated at the window boundary"
            )
        split = split_ideal(self.ring, self.k_gens)
        if split and not split[0]:  # slices i - 1, i and i + 1 cut once each
            tgt, src, up = (self._cut(k, q, split[1]) for k in (i - 1, i, i + 1))
            got = homology_invariants(base, self._free_part(i, q, src, tgt),
                                      self._free_part(i + 1, q, up, src), len(src), len(tgt))
            if got:
                return ModuleEntry(*got)
        z_rows = _cycle_rows(
            base, d_i, self.relation_rows(i - 1, q), width, self._slice(i - 1, q)[0]
        )
        b_rows = d_up + self.relation_rows(i, q)
        return quotient_invariants(z_rows, b_rows, width, base)


def tor(ring: GradedRing, j_gens, k_gens, i: int):
    """Degreewise Tor_i(R/J, R/K) through the Koszul resolution of R/J."""
    if i < 0:
        raise SemanticError("homological degree must be >= 0")
    jseq = checked_sequence(ring, _gens(ring, j_gens))
    # the complex refuses invalid input, such as a zero entry of the first
    # sequence or a non-homogeneous second one, before any verdict
    cx = KoszulComplex(ring, jseq, k_gens)
    reg = check_regular_sequence(ring, jseq)
    if not reg.regular:
        raise NotVerifiedRegular(
            "sequence not verified regular (fails at entry %s)" % (reg.first_failure,)
        )
    degrees = list(ring.even_degrees())
    report = GradedModuleReport((degrees[0] if degrees else 0, ring.degree_window), {})
    if i > cx.length:
        return report
    for q in degrees:
        cx.validate_squares(q)
        entry = cx.homology_entry(i, q)
        cx.release(q)
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


def tor1_equals_intersection_over_product(ring: GradedRing, j_gens, k_gens) -> bool:
    """Whether Tor_1 agrees degreewise with (J∩K)/(J·K) inside the window."""
    jseq = _gens(ring, j_gens)
    kseq = _gens(ring, k_gens)
    t1 = tor(ring, jseq, kseq, 1)
    prod = _product_gens(ring, jseq, kseq)
    for q in ring.even_degrees():
        rows_j = ideal_context(ring, jseq, q).rows
        rows_k = ideal_context(ring, kseq, q).rows
        width = len(ring.degree_exps(q))
        inter = lattice_intersection_rows(ring.base, rows_j, rows_k, width)
        entry = quotient_invariants(inter, ideal_context(ring, prod, q).rows, width, ring.base)
        if entry != t1.entry(q):
            return False
    return True


def check_condition_ii(ring: GradedRing, ideals):
    """Product equals intersection for each ideal against its predecessors.

    Returns one boolean per index k = 2..n.
    """
    fams = [_gens(ring, i) for i in ideals]
    if not fams:
        raise EmptySequence("at least one ideal is required")
    for fam in fams:
        if not fam:
            raise EmptySequence("ideals must have at least one generator")
    results = []
    for k in range(2, len(fams) + 1):
        prev, tail = sum(fams[: k - 1], ()), fams[k - 1]
        prod = _product_gens(ring, prev, tail)
        results.append(all(_meet_in_product(ring, prev, tail, prod, q)
                           for q in ring.even_degrees()))
    return results


def _meet_in_product(ring, prev, tail, prod, q) -> bool:
    """Whether the degree-q slices of (prev) and (tail) meet inside (prod)'s:
    C_prev ∩ C_tail ⊆ C_prod on ``IdealContext.columns``, else on lattices."""
    ctx_p, ctx_t = ideal_context(ring, prev, q), ideal_context(ring, tail, q)
    if ctx_p.columns is not None and ctx_t.columns is not None:
        meet = ctx_p.columns & ctx_t.columns
        cols = meet and ideal_context(ring, prod, q).columns
        if cols is not None:
            return meet <= cols
    inter = lattice_intersection_rows(ring.base, ctx_p.rows, ctx_t.rows, ctx_p.width)
    return not inter or all(map(ideal_context(ring, prod, q).lattice.contains, inter))


# -- conormal decomposition -------------------------------------------


class DecompositionDegree(NamedTuple):
    degree: int
    module: ModuleEntry
    summands: list
    verified: bool


class ConormalDecomposition(NamedTuple):
    """I/I² split into per-ideal summands, verified degreewise."""

    degrees: dict
    verified: bool


def decompose_conormal(ring: GradedRing, ideals):
    """Split I/I² into one summand per ideal, with verified inverse maps.

    In each degree the forward map splits every basis vector of I into the
    parts its single ideals generate, and the backward map writes every
    summand basis vector in the basis of I, on columns (``_split_by_columns``)
    or on the slice lattices.  A degree is verified when backward∘forward is
    the identity modulo I² and forward∘backward the identity on each summand
    modulo its relations.
    """
    fams = [_gens(ring, i) for i in ideals]
    for fam in fams:
        if not fam:
            raise EmptySequence("ideals must have at least one generator")
    cond = check_condition_ii(ring, ideals)
    if not all(cond):
        bad = 2 + cond.index(False)
        raise ConditionIIFails(
            "product-intersection condition fails at ideal %d" % bad
        )
    base = ring.base
    allgens = sum(fams, ())
    owner = [idx for idx, fam in enumerate(fams) for _ in fam]
    prod_all = _product_gens(ring, allgens, allgens)
    prods = [_product_gens(ring, allgens, fam) for fam in fams]
    degrees = {}
    for q in ring.even_degrees():
        width = len(ring.degree_exps(q))
        if width == 0:
            continue
        ctx_all = ideal_context(ring, allgens, q)
        cols = ctx_all.columns
        # A degree is listed when the integer lift of I's slice is nonzero,
        # which over F_p and Z/m is every degree of positive width.
        if not lift_rank(base, ctx_all.lattice.rank if cols is None else len(cols), width):
            continue
        rel_all = ideal_context(ring, prod_all, q)
        ctxs = [ideal_context(ring, fam, q) for fam in fams]
        rels = [ideal_context(ring, prod, q) for prod in prods]
        if split := _split_by_columns(base, [ctx_all, *ctxs], [rel_all, *rels]):
            degrees[q] = DecompositionDegree(q, split[0], split[1:], True)
            continue
        lat = ctx_all.lattice
        row_owner = [owner[gi] if kind == "gen" else None for kind, gi, _ in ctx_all.tags]
        n_rows = len(row_owner)
        a_entry = _lattice_quotient(lat, rel_all.rows, base)
        entries = [_lattice_quotient(c.lattice, r.rows, base) for c, r in zip(ctxs, rels)]
        a_basis = lat.integer_basis()
        bases = [c.lattice.integer_basis() for c in ctxs]
        # fwd[s][r]: the part of a_basis[r] on the generator rows of ideal s,
        # a combination of rows of ctxs[s], on that lattice's basis.  Row r
        # of the transform writes unit * a_basis[r] on the rows of ctx_all;
        # over Z/m its entries on the lattice's own multiples of m, which
        # vanish over Z/m, come at indices past row_owner and are dropped.
        sols, unit = lat.integer_transform()
        fwd, fden = common_denominator([
            [c.lattice.integer_coordinates(_row_combination(
                {i: x for i, x in sol.items() if i < n_rows and row_owner[i] == s},
                ctx_all.rows,
            )) for sol in sols]
            for s, c in enumerate(ctxs)
        ])
        # bwd[s][k]: basis vector k of summand s on a_basis
        bwd, bden = common_denominator(
            [[lat.integer_coordinates(b) for b in basis] for basis in bases]
        )
        back_rows = [row for rows in bwd for row in rows]
        offset = list(accumulate(map(len, bwd), initial=0))  # summand s starts at offset[s]
        # fwd is over fden * unit and bwd over bden, so each composite is X / den
        den = fden * unit * bden
        ok = all(
            # backward ∘ forward = identity on A modulo I² relations
            _is_unit_row(
                _row_combination(
                    {offset[s] + k: c for s, f in enumerate(fwd) for k, c in f[r].items()},
                    back_rows,
                ),
                r, a_basis, rel_all.lattice, den,
            )
            for r in range(len(a_basis))
        ) and all(
            # forward ∘ backward = identity on each summand modulo its relations
            _is_unit_row(
                _row_combination(brow, fwd[s]),
                r if s == idx else None, bases[s], rels[s].lattice, den,
            )
            for idx, rows in enumerate(bwd)
            for r, brow in enumerate(rows)
            for s in range(len(fams))
        )
        degrees[q] = DecompositionDegree(q, a_entry, entries, ok)
    return ConormalDecomposition(degrees, all(d.verified for d in degrees.values()))


def _split_by_columns(base, ctxs, rels):
    """The entries of I/I² and each summand in one degree when the slices of
    I, ``ctxs[0]``, each ideal and their relations have ``columns``, C_rel ⊆
    C, and the ideals' C − C_rel partition I's, else None: each is then free
    on its C − C_rel, and the coordinate maps are mutually inverse."""
    pairs = ((c.columns, r.columns) for c, r in zip(ctxs, rels))
    free = [c - r for c, r in pairs if None not in (c, r) and r <= c]
    if len(free) < len(ctxs) or sorted(j for f in free[1:] for j in f) != sorted(free[0]):
        return None
    return [ModuleEntry(*module_invariants(base, [], len(f))) for f in free]
