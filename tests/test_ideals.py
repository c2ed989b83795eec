import json
import random
from fractions import Fraction

import pytest
from test_linalg import dense_of, over, sparse_of, sparse_rows

from regquot import ideals as ideals_module
from regquot import linalg
from regquot.cli import run_job
from regquot.errors import (
    ConditionIIFails,
    EmptySequence,
    NonHomogeneous,
    NotVerifiedRegular,
    SemanticError,
    WindowOverflow,
)
from regquot.ideals import (
    HomogeneousIdeal,
    KoszulComplex,
    ModuleEntry,
    RegularityReport,
    _cycle_rows,
    _is_unit_row,
    _lattice_quotient,
    _product_gens,
    _regularity,
    check_condition_ii,
    check_regular_sequence,
    decompose_conormal,
    quotient_invariants,
    tor,
    tor1_equals_intersection_over_product,
)
from regquot.jobio import parse_job
from regquot.linalg import (
    FieldLattice,
    IntLattice,
    LocalLattice,
    cleared_matrix,
    kernel_basis,
    lattice_for,
)
from regquot.morava import build_scenario
from regquot.ring import (
    GradedRing,
    Generator,
    IdealContext,
    QuotientRing,
    _cached_context,
    _constant_lattice,
    ideal_context,
)
from regquot.scalars import BaseRing


@pytest.fixture
def f2_xy():
    return GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )


@pytest.fixture
def zloc_laurent():
    return GradedRing(
        BaseRing.integers_localized(2),
        [Generator("v1", 2, invertible=True)],
        degree_window=4,
        laurent_window=2,
    )


@pytest.fixture
def z_plain():
    return GradedRing(BaseRing.integers(), [], degree_window=4)


@pytest.fixture
def z_v1():
    # degree-zero polynomial generator; exponents capped by the window
    return GradedRing(BaseRing.integers(), [Generator("v1", 0)], degree_window=8)


def test_regular_pair(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    rep = check_regular_sequence(f2_xy, [x, y])
    assert rep.regular
    assert rep.first_failure is None


def test_repeated_generator_fails_at_two(f2_xy):
    x = f2_xy.var("x")
    rep = check_regular_sequence(f2_xy, [x, x])
    assert not rep.regular
    assert rep.first_failure == 2
    assert rep.failure_degree == 0


def test_zero_entry_fails_immediately(f2_xy):
    rep = check_regular_sequence(f2_xy, [f2_xy.zero()])
    assert not rep.regular
    assert rep.first_failure == 1


def test_integer_multiples_fail(z_plain):
    four = z_plain.constant(4)
    six = z_plain.constant(6)
    rep = check_regular_sequence(z_plain, [four, six])
    assert not rep.regular
    assert rep.first_failure == 2


def test_two_regular_in_local_laurent(zloc_laurent):
    two = zloc_laurent.constant(2)
    rep = check_regular_sequence(zloc_laurent, [two])
    assert rep.regular


def test_empty_sequence_rejected(f2_xy):
    with pytest.raises(EmptySequence):
        check_regular_sequence(f2_xy, [])


def test_inhomogeneous_rejected(f2_xy):
    with pytest.raises(NonHomogeneous):
        check_regular_sequence(f2_xy, [f2_xy.var("x") + f2_xy.one()])


def test_koszul_slices_and_differential(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    cx = KoszulComplex(f2_xy, [x, y])
    assert len(cx.chain_slice(0, 2)) == 2
    assert len(cx.chain_slice(1, 2)) == 2
    assert cx.chain_slice(2, 2) == []
    rows, truncated = cx.differential_rows(1, 2)
    assert not truncated
    # target basis is [(0,1)=y, (1,0)=x]; source is [({0},1), ({1},1)]
    assert [dense_of(row, 2) for row in rows] == [[0, 1], [1, 0]]
    for q in (2, 4, 6, 8):
        cx.validate_squares(q)


def test_tor0_is_quotient_ring(f2_xy):
    x = f2_xy.var("x")
    rep = tor(f2_xy, [x], [x], 0)
    for q in (0, 2, 4, 6, 8):
        assert rep.entry(q).dimension_over(2) == 1


def test_tor1_of_repeated_principal_ideal(f2_xy):
    x = f2_xy.var("x")
    rep = tor(f2_xy, [x], [x], 1)
    assert rep.entry(0).is_zero()
    for q in (2, 4, 6, 8):
        assert rep.entry(q).dimension_over(2) == 1


def test_tor_above_length_vanishes(f2_xy):
    x = f2_xy.var("x")
    rep = tor(f2_xy, [x], [x], 2)
    assert rep.entries == {}


def test_tor_requires_verified_regular(f2_xy):
    x = f2_xy.var("x")
    with pytest.raises(NotVerifiedRegular):
        tor(f2_xy, [x, x], [x], 1)


def test_tor_integer_prime_powers(z_plain):
    eight = z_plain.constant(8)
    sixteen = z_plain.constant(16)
    t0 = tor(z_plain, [eight], [sixteen], 0)
    assert t0.entry(0) == ModuleEntry(0, (8,))
    t1 = tor(z_plain, [eight], [sixteen], 1)
    assert t1.entry(0) == ModuleEntry(0, (8,))


def test_tor_local_laurent_quotient(zloc_laurent):
    two = zloc_laurent.constant(2)
    t0 = tor(zloc_laurent, [two], [two], 0)
    t1 = tor(zloc_laurent, [two], [two], 1)
    for q in (-4, -2, 0, 2, 4):
        assert t0.entry(q) == ModuleEntry(0, (2,))
        assert t1.entry(q) == ModuleEntry(0, (2,))


def test_tor_window_truncation_is_reported(z_v1):
    v1 = z_v1.var("v1")
    two = z_v1.constant(2)
    with pytest.raises(WindowOverflow):
        tor(z_v1, [v1 - two], [two], 1)


def test_tor1_matches_intersection_over_product(f2_xy, z_plain, z_v1):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    assert tor1_equals_intersection_over_product(f2_xy, [x], [x])
    assert tor1_equals_intersection_over_product(f2_xy, [x], [y])
    eight = z_plain.constant(8)
    nine = z_plain.constant(9)
    sixteen = z_plain.constant(16)
    assert tor1_equals_intersection_over_product(z_plain, [eight], [nine])
    assert tor1_equals_intersection_over_product(z_plain, [eight], [sixteen])
    v1, two = z_v1.var("v1"), z_v1.constant(2)
    assert tor1_equals_intersection_over_product(z_v1, [two], [v1 - two])


def test_condition_ii_examples(f2_xy, z_plain, z_v1):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    assert check_condition_ii(f2_xy, [[x], [y]]) == [True]
    two = z_plain.constant(2)
    assert check_condition_ii(z_plain, [[two], [two]]) == [False]
    eight, nine = z_plain.constant(8), z_plain.constant(9)
    assert check_condition_ii(z_plain, [[eight], [nine]]) == [True]
    v1 = z_v1.var("v1")
    assert check_condition_ii(z_v1, [[z_v1.constant(2)], [v1 - 2]]) == [True]


def test_condition_ii_three_ideals(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    res = check_condition_ii(f2_xy, [[x], [y], [x + y]])
    assert res == [True, False]


def test_condition_ii_needs_ideals(f2_xy):
    with pytest.raises(EmptySequence):
        check_condition_ii(f2_xy, [])
    with pytest.raises(EmptySequence):
        check_condition_ii(f2_xy, [[], [f2_xy.var("x")]])


def test_decompose_two_variables(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    dec = decompose_conormal(f2_xy, [[x], [y]])
    assert dec.verified
    top = dec.degrees[2]
    assert top.module == ModuleEntry(0, (2, 2))
    assert top.summands == [ModuleEntry(0, (2,)), ModuleEntry(0, (2,))]
    assert top.verified
    assert dec.degrees[4].module.is_zero()


def test_decompose_integer_polynomial(z_v1):
    v1, two = z_v1.var("v1"), z_v1.constant(2)
    dec = decompose_conormal(z_v1, [[two], [v1 - two]])
    assert dec.verified
    rec = dec.degrees[0]
    assert rec.module == ModuleEntry(0, (2, 2))
    assert rec.summands == [ModuleEntry(0, (2,)), ModuleEntry(0, (2,))]


def test_decompose_requires_condition_ii(z_plain):
    two = z_plain.constant(2)
    with pytest.raises(ConditionIIFails):
        decompose_conormal(z_plain, [[two], [two]])


def test_ideal_validation(f2_xy):
    with pytest.raises(EmptySequence):
        HomogeneousIdeal(f2_xy, [])
    ideal = HomogeneousIdeal(f2_xy, [f2_xy.var("x")])
    assert len(ideal.generators) == 1


def test_regular_pairs_satisfy_condition_ii(f2_xy):
    rng = random.Random(20260823)
    found = 0
    for _ in range(12):
        f = sum(m for m in f2_xy.degree_basis(2) if rng.random() < 0.5)
        g = sum(m for m in f2_xy.degree_basis(4) if rng.random() < 0.5)
        if f == 0 or g == 0:
            continue
        rep = check_regular_sequence(f2_xy, [f, g])
        if rep.regular:
            found += 1
            assert check_condition_ii(f2_xy, [[f], [g]]) == [True]
            assert tor1_equals_intersection_over_product(f2_xy, [f], [g])
    assert found >= 3


def test_p_unit_denominators_keep_tor_and_decomposition():
    # The sequence (x/3, 5y/7 + x/3, z) against (5x/7) over Z_(2) differs
    # from (x, 7x + 15y, z) against (5x) only by 2-unit factors on each
    # entry.  Clearing the denominators of each Koszul map row separately
    # would change the cycle coordinates, so every result must agree.
    ring = GradedRing(
        BaseRing.integers_localized(2),
        [Generator("x", 2), Generator("y", 2), Generator("z", 2)],
        degree_window=8,
    )
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    third, five_sevenths = Fraction(1, 3), Fraction(5, 7)
    scaled = [x * third, y * five_sevenths + x * third, z]
    cleared = [x, 7 * x + 15 * y, z]
    scaled_k, cleared_k = [x * five_sevenths], [5 * x]
    for i in (0, 1, 2):
        got = tor(ring, scaled, scaled_k, i).as_dict()
        assert got == tor(ring, cleared, cleared_k, i).as_dict()
        assert bool(got) == (i < 2)
    dec_s = decompose_conormal(ring, [[g] for g in scaled])
    dec_c = decompose_conormal(ring, [[g] for g in cleared])
    assert dec_s.verified and dec_c.verified
    assert dec_s.degrees == dec_c.degrees
    assert tor1_equals_intersection_over_product(ring, scaled, scaled_k)
    assert tor1_equals_intersection_over_product(ring, cleared, cleared_k)


def test_quotient_invariants_localize_by_p_part():
    # Z_(p) against Z on seeded Z >= B: localizing is exact, so the free
    # rank is kept and the factors are the p-parts above 1 of the Z factors.
    rng = random.Random(20261018)
    integers = BaseRing.integers()
    nontrivial = mixed = 0
    for _ in range(200):
        width = rng.randint(1, 4)
        z_rows = [
            [rng.choice((0, 0, 1, -1, 2, 3, 4, 6, 9)) for _ in range(width)]
            for _ in range(rng.randint(1, 4))
        ]
        b_rows = []
        for _ in range(rng.randint(0, 4)):
            coeffs = [rng.choice((0, 1, -1, 2, 3, 4, 5)) for _ in z_rows]
            b_rows.append([sum(c * r[j] for c, r in zip(coeffs, z_rows)) for j in range(width)])
        z_rows, b_rows = sparse_rows(z_rows), sparse_rows(b_rows)
        over_z = quotient_invariants(z_rows, b_rows, width, integers)
        nontrivial += bool(over_z.factors)
        mixed += any(f % 6 == 0 or f % 10 == 0 or f % 15 == 0 for f in over_z.factors)
        for p in (2, 3, 5):
            local = quotient_invariants(z_rows, b_rows, width, BaseRing.integers_localized(p))
            assert local.free_rank == over_z.free_rank
            parts = sorted(f for f in (_p_part(v, p) for v in over_z.factors) if f > 1)
            assert list(local.factors) == parts
    assert nontrivial >= 40 and mixed >= 10, (nontrivial, mixed)


def test_rank_zero_cycle_span_refuses_escaping_relations():
    # A cycle span of rank 0, from zero rows or from no rows at all, takes
    # the escape check that every other rank takes: a relation row outside
    # it raises, and zero relation rows, over F_3 also rows that are 0 mod
    # 3, give the zero entry.
    rng = random.Random(1601)
    f3 = BaseRing.prime_field(3)
    escaped = 0
    for base in (BaseRing.integers_localized(2), f3, BaseRing.integers()):
        for _ in range(60):
            width = rng.randint(1, 4)
            z_rows = [{} for _ in range(rng.randint(0, 3))]
            mult = 3 if base == f3 else 0
            zero = [
                sparse_of([mult * rng.randint(-2, 2) for _ in range(width)])
                for _ in range(rng.randint(0, 3))
            ]
            lat = lattice_for(base, z_rows, width)
            assert lat.rank == 0
            assert quotient_invariants(z_rows, zero, width, base) == ModuleEntry()
            assert _lattice_quotient(lat, zero, base) == ModuleEntry()
            stranger = [rng.randint(-5, 5) for _ in range(width)]
            if base.p == 2:
                stranger = [Fraction(x, rng.choice((1, 3, 5))) for x in stranger]
            if not any(x % 3 if base == f3 else x for x in stranger):
                continue
            escaped += 1
            rows = zero + [sparse_of(stranger)]
            rng.shuffle(rows)
            with pytest.raises(SemanticError, match="escapes the cycle span"):
                quotient_invariants(z_rows, rows, width, base)
            with pytest.raises(SemanticError, match="escapes the cycle span"):
                _lattice_quotient(lat, rows, base)
    assert escaped >= 150, escaped


def _p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def test_zero_generator_adds_nothing_to_products(f2_xy):
    # 2x is zero over F_2: it has no degree, and it used to crash the
    # product of ideals with a TypeError.
    x, y = f2_xy.var("x"), f2_xy.var("y")
    zero = 2 * x
    assert check_condition_ii(f2_xy, [[x, zero], [y]]) == [True]
    dec = decompose_conormal(f2_xy, [[x, zero], [y]])
    assert dec.degrees == decompose_conormal(f2_xy, [[x], [y]]).degrees
    assert tor1_equals_intersection_over_product(f2_xy, [x], [y, zero])


def ref_combine(base, coeffs, rows, width):
    """The combination sum of ``c_k * rows[k]`` in base arithmetic, skipping
    zeros; the independent reference for the plain-integer combinations."""
    out = [base.zero()] * width
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in enumerate(row):
                if v:
                    out[j] = base.add(out[j], base.mul(c, v))
    return out


@pytest.mark.parametrize("base", [
    BaseRing.integers(),
    BaseRing.integers_localized(3),
    BaseRing.prime_field(3),
    BaseRing.integers_mod(4),
])
def test_unit_row_check(base):
    # The decomposition check: sum (c_k - [k == r]) rows[k] in the lattice.
    rows = [[1, 1], [0, 1]]
    lat = lattice_for(base, [{0: 2, 1: 2}], 2)
    assert ref_combine(base, [3, -1], rows, 2) == [base.normalize(x) for x in (3, 2)]

    def unit(coeffs, r, den=1):
        return _is_unit_row(sparse_of(coeffs), r, sparse_rows(rows), lat, den)

    assert unit([1, 0], 0)
    assert unit([0, 1], 1)
    assert unit([3, 0], 0)
    # [1, 1] is half of [2, 2], and 2 is a unit of Z_(3) and F_3 only
    assert unit([2, 0], 0) == (base.p == 3)
    assert not unit([1, 1], 0)
    assert unit([0, 0], None)
    assert not unit([0, 1], None)
    # over a denominator 5, which is a unit of every base here: [5, 0] / 5
    # is row 0, and [4, 0] / 5 differs from it by -[1, 1] / 5
    assert unit([5, 0], 0, 5)
    assert not unit([5, 1], 0, 5)
    assert unit([4, 0], 0, 5) == (base.p == 3)
    mod = base.characteristic
    if mod:
        # raw integers that differ from the identity row, or from the zero
        # row, only by multiples of p or m
        assert unit([1 + mod, -mod], 0)
        assert unit([-mod, 1 + 2 * mod], 1)
        assert unit([mod, mod], None)
        assert not unit([1 + mod, 1], 0)


def ref_conormal_checks(ring, ideals, window):
    """Degree -> whether ``decompose_conormal``'s two checks pass, computed
    on dense ``Fraction`` rows: the maps on ``integer_basis()`` through the
    transform and the coordinates as ``t / D`` and ``C / D``, with nothing
    cleared, and each check as ``X - e_r`` in the relation span.  Each row
    of ``integer_basis()`` is a unit times the echelon row, so each check
    row only gains unit factors, and no decision changes."""
    fams = [tuple(fam) for fam in ideals]
    allgens = sum(fams, ())
    owner = [idx for idx, fam in enumerate(fams) for _ in fam]
    prod_all = _product_gens(ring, allgens, allgens)

    def combine(coeffs, rows, width):
        out = [Fraction(0)] * width
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        out[j] += c * x
        return out

    def unit_row(coeffs, r, rows, lat, width):
        coeffs = list(coeffs)
        if r is not None:
            coeffs[r] -= 1
        diff = combine(coeffs, rows, width)
        return not any(diff) or lat.contains(sparse_of(diff))

    out = {}
    for q in ring.even_degrees(window):
        width = len(ring.degree_exps(q))
        ctx_all = ideal_context(ring, allgens, q)
        lat = ctx_all.lattice
        if not width or not lat.rank:
            continue
        row_owner = [owner[gi] if kind == "gen" else None for kind, gi, _ in ctx_all.tags]
        rel_all = ideal_context(ring, prod_all, q)
        ctxs = [ideal_context(ring, fam, q) for fam in fams]
        rels = [ideal_context(ring, _product_gens(ring, allgens, fam), q) for fam in fams]
        a_basis = [dense_of(b, width) for b in lat.integer_basis()]
        bases = [[dense_of(b, width) for b in c.lattice.integer_basis()] for c in ctxs]
        all_rows = [dense_of(row, width) for row in ctx_all.rows]
        t, D = lat.integer_transform()
        sols = [over((row, D), lat.nrows) for row in t]
        fwd = [
            [over(c.lattice.integer_coordinates(sparse_of(combine(
                [x if o == s else 0 for x, o in zip(sol, row_owner)], all_rows, width,
            ))), c.lattice.rank) for sol in sols]
            for s, c in enumerate(ctxs)
        ]
        bwd = [
            [over(lat.integer_coordinates(sparse_of(b)), lat.rank) for b in basis]
            for basis in bases
        ]
        back_rows = [row for rows in bwd for row in rows]
        out[q] = all(
            unit_row(
                combine([c for f in fwd for c in f[r]], back_rows, len(a_basis)),
                r, a_basis, rel_all.lattice, width,
            )
            for r in range(len(a_basis))
        ) and all(
            unit_row(
                combine(brow, fwd[s], len(bases[s])),
                r if s == idx else None, bases[s], rels[s].lattice, width,
            )
            for idx, rows in enumerate(bwd)
            for r, brow in enumerate(rows)
            for s in range(len(fams))
        )
    return out


def test_conormal_checks_match_fraction_reference():
    # Seeded Z_(2) and Z_(3) families with torsion coefficients and p-unit
    # denominators: the integer maps over one p-unit denominator decide
    # every degree as the Fraction maps do.
    gens = [Generator(n, 2) for n in ("x", "y", "z")]
    rng = random.Random(1503)
    checked = 0
    for p in (2, 3):
        ring = GradedRing(BaseRing.integers_localized(p), gens, degree_window=8)
        x, y, z = (ring.var(n) for n in ("x", "y", "z"))
        fams = [[[2 * x], [6 * y]], [[6 * y], [x], [z]], [[x, 2 * y], [z]]]
        for _ in range(6):
            choices = [1, -1, 2, 3, 6, Fraction(5, 7), Fraction(-4, 5)]
            coeffs = [rng.choice(choices) for _ in range(3)]
            fams.append([[c * g] for c, g in zip(coeffs, (x, y, z))])
        for ideals in fams:
            try:
                dec = decompose_conormal(ring, ideals)
            except ConditionIIFails:
                continue
            want = ref_conormal_checks(ring, ideals, ring.degree_window)
            assert {q: d.verified for q, d in dec.degrees.items()} == want, ideals
            assert dec.verified
            checked += 1
    assert checked >= 10


# -- oracle for the regularity check ----------------------------------


def ref_regularity(ring, elems, window):
    """``_regularity`` with its own multiplication-row loop and monomial
    scan, as it ran before it read the rows from the principal ideal
    context of each entry."""
    base = ring.base
    for k, x in enumerate(elems, start=1):
        prev = elems[: k - 1]
        if x.is_zero():
            return RegularityReport(False, k, None, window, "zero entry")
        dx = x.degree()
        for d in ring.even_degrees(window - dx):
            src = ideal_context(ring, prev, d)
            tgt = ideal_context(ring, prev, d + dx)
            tgt_index = {e: j for j, e in enumerate(tgt.exps)}
            rows = []
            used = []
            for m in src.exps:
                row = [base.zero()] * len(tgt.exps)
                fits = True
                for exps, c in x.terms.items():
                    prod = tuple(a + b for a, b in zip(m, exps))
                    if prod not in tgt_index:
                        fits = False
                        break
                    row[tgt_index[prod]] = base.add(row[tgt_index[prod]], c)
                if fits:
                    rows.append(row)
                    used.append(m)
            if not rows:
                continue
            # the rows hold base values, and _cycle_rows takes int rows
            ints, _ = cleared_matrix(rows)
            kernel = _cycle_rows(base, sparse_rows(ints), tgt.rows, len(used), len(tgt.exps))
            for vec in kernel:
                full = [0] * len(src.exps)
                for val, m in zip(dense_of(vec, len(used)), used):
                    full[src.exps.index(m)] = val
                if not src.lattice.contains(sparse_of(full)):
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
    return RegularityReport(True, None, None, window, "")


def _random_homogeneous(rng, ring, coeffs):
    exps = ring.degree_exps(rng.choice([0, 2, 2, 4]))
    picked = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
    return ring.element({e: rng.choice(coeffs) for e in picked})


def _clear_ring_caches():
    _regularity.cache_clear()
    _cached_context.cache_clear()
    _constant_lattice.cache_clear()


def test_regularity_matches_row_loop_oracle():
    xy = [Generator("x", 2), Generator("y", 2)]
    z, f2, f3 = BaseRing.integers(), BaseRing.prime_field(2), BaseRing.prime_field(3)
    z4, z2 = BaseRing.integers_mod(4), BaseRing.integers_localized(2)
    rings = [
        (GradedRing(z, xy, degree_window=8), [1, -1, 2, 3, -6]),
        (GradedRing(f2, xy + [Generator("w", 4)], degree_window=8), [1]),
        (GradedRing(f3, xy, degree_window=8), [1, 2]),
        (GradedRing(z4, xy, degree_window=8), [1, 2, 3]),
        (GradedRing(z2, xy, degree_window=6), [1, 2, Fraction(1, 3), Fraction(-4, 5)]),
    ]
    with_relation = GradedRing(f3, xy, degree_window=8)
    x, y = with_relation.var("x"), with_relation.var("y")
    rings.append(
        (GradedRing(f3, xy, degree_window=8, relations=[x * x * y - y * y * y]), [1, 2])
    )
    rings.append(
        (GradedRing(z2, [Generator("x", 2), Generator("v", 2, invertible=True)],
                    degree_window=6, laurent_window=2), [1, 2, -3, Fraction(2, 3)])
    )
    rng = random.Random(211)
    cases = []
    for ring, coeffs in rings:
        for _ in range(8):
            length = rng.randint(1, 3)
            cases.append((ring, tuple(_random_homogeneous(rng, ring, coeffs) for _ in range(length))))
        x, y = ring.var("x"), ring.var(ring.generators[1].name)
        cases.append((ring, (x, x)))  # a repeated entry
        cases.append((ring, (x, y)))
    z_ring, z4_ring = rings[0][0], rings[3][0]
    zx, zy = z_ring.var("x"), z_ring.var("y")
    cases.append((z_ring, (2 * zx, zy, 3 * zx)))  # a multiple of an earlier entry
    cases.append((z_ring, (z_ring.constant(4), z_ring.constant(6))))
    cases.append((z4_ring, (2 * z4_ring.var("x"),)))  # 2x kills 2 over Z/4
    outcomes = set()
    for ring, seq in cases:
        window = ring.degree_window
        _clear_ring_caches()
        want = ref_regularity(ring, seq, window)
        _clear_ring_caches()
        assert _regularity(ring, seq, window) == want, (ring, seq)
        outcomes.add((want.regular, want.failure_degree is not None))
    _clear_ring_caches()
    # regular, non-regular with a kernel degree, and non-regular without one
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_regularity_builds_prefix_slices_only(monkeypatch):
    # The rows x * m come from the cached row blocks, so every ideal slice
    # that the check builds is the slice of a prefix of the sequence.  The
    # entries of (x + y, y + z, z + x) are not monomials, so structure
    # decides none after the first and each prefix is scanned or checked
    # for R/I = 0; K(3) at p=2 is decided by structure alone.
    seen = []
    build = IdealContext.__init__

    def spy(self, ring, gens, d):
        seen.append(tuple(gens))
        build(self, ring, gens, d)

    monkeypatch.setattr(IdealContext, "__init__", spy)
    xyz = [Generator(n, 2) for n in "xyz"]
    for base in (BaseRing.prime_field(3), BaseRing.integers()):
        ring = GradedRing(base, xyz, degree_window=8)
        x, y, z = (ring.var(n) for n in "xyz")
        seq = (x + y, y + z, z + x)
        seen.clear()
        _clear_ring_caches()
        assert check_regular_sequence(ring, seq).regular
        _clear_ring_caches()
        assert {len(gens) for gens in seen} == {1, 2, 3}, base
        assert all(gens == seq[: len(gens)] for gens in seen)
    sc = build_scenario(2, 3)
    seen.clear()
    _clear_ring_caches()
    assert check_regular_sequence(sc.ring, tuple(sc.spec.sequence)).regular
    _clear_ring_caches()
    assert not seen


def ref_regularity_kernel(ring, elems, window):
    """``_regularity`` as it ran before its field path: every entry of every
    base on a kernel basis, each kernel vector tested for membership."""
    for k, x in enumerate(elems, start=1):
        prev = elems[: k - 1]
        if x.is_zero():
            return RegularityReport(False, k, None, window, "zero entry")
        dx = x.degree()
        for d in ring.even_degrees(window - dx):
            src = ideal_context(ring, prev, d)
            tgt = ideal_context(ring, prev, d + dx)
            mult = ideal_context(ring, (x,), d + dx)
            used = [m for kind, _, m in mult.tags if kind == "gen"]
            if not used:
                continue
            kernel = _cycle_rows(
                ring.base, mult.rows[: len(used)], tgt.rows, len(used), len(tgt.exps)
            )
            pos = {m: j for j, m in enumerate(src.exps)}
            for vec in kernel:
                full = [0] * len(src.exps)
                for val, m in zip(dense_of(vec, len(used)), used):
                    full[pos[m]] = val
                if not src.lattice.contains(sparse_of(full)):
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
    return RegularityReport(True, None, None, window, "")


def _field_path_cases():
    """Seeded sequences whose entries, or whose entries after a constant of
    valuation 1, take the field path, with the p^2 * unit and late-constant
    neighbours that must not change their reports."""
    xy = [Generator("x", 2), Generator("y", 2)]
    laurent = [Generator("x", 2), Generator("v", 4, invertible=True)]
    rng = random.Random(1201)
    cases = []
    for p in (2, 3, 5):
        field = BaseRing.prime_field(p)
        rings = [
            GradedRing(field, xy + [Generator("w", 4)], degree_window=8),
            GradedRing(field, laurent, degree_window=8, laurent_window=1),
        ]
        plain = GradedRing(field, xy, degree_window=8)
        x, y = plain.var("x"), plain.var("y")
        rings.append(GradedRing(field, xy, degree_window=8, relations=[x * x * y - y * y * y]))
        for ring in rings:
            coeffs = list(range(1, p))
            for _ in range(6):
                length = rng.randint(1, 3)
                cases.append((ring, tuple(_random_homogeneous(rng, ring, coeffs) for _ in range(length))))
            cases.append((ring, (ring.var("x"), ring.var("x"))))
    for p in (2, 3):
        local = BaseRing.integers_localized(p)
        rings = [
            GradedRing(local, xy, degree_window=6),
            GradedRing(local, laurent, degree_window=6, laurent_window=1),
        ]
        x, y = rings[0].var("x"), rings[0].var("y")
        rings.append(GradedRing(local, xy, degree_window=6, relations=[p * x * y - y * y]))
        unit = Fraction(5, 7)
        for ring in rings:
            coeffs = [1, -1, p, p * p, unit]
            for c in (p, -p, p * unit, p * p, p * p * unit):
                for _ in range(3):
                    tail = tuple(_random_homogeneous(rng, ring, coeffs) for _ in range(rng.randint(1, 2)))
                    cases.append((ring, (ring.constant(c),) + tail))
            x = ring.var("x")
            cases.append((ring, (x, ring.constant(p), ring.var(ring.generators[1].name))))
            cases.append((ring, (ring.constant(p), p * x)))  # kills the entry mod p
            cases.append((ring, (ring.constant(p * p), p * x)))  # p * x kills p over Z/p^2
            cases.append((ring, (ring.constant(p), x, x)))
    # The degree-0 slice of (4, u) holds 1 mod 2 but not 1, so u, which
    # kills 1 modulo (4, u), would pass on the field path after 4.
    ring = GradedRing(BaseRing.integers_localized(2), laurent, degree_window=6, laurent_window=1)
    u = ring.parse("1 + 2*x^2*v^-1")
    cases.append((ring, (ring.constant(4), u, u)))
    for p, n in ((2, 2), (3, 2), (2, 3)):
        spec = build_scenario(p, n).spec
        cases.append((spec.ring, spec.sequence))
        cases.append((spec.ring, spec.sequence[1:] + spec.sequence[:1]))
    return cases


def test_field_path_matches_kernel_oracle():
    outcomes = set()
    for ring, seq in _field_path_cases():
        for window in (ring.degree_window, ring.degree_window - 4):
            _clear_ring_caches()
            want = ref_regularity_kernel(ring, seq, window)
            _clear_ring_caches()
            assert _regularity(ring, seq, window) == want, (ring, seq, window)
            outcomes.add((want.regular, want.failure_degree is not None))
    _clear_ring_caches()
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_field_path_calls_no_kernel_basis(monkeypatch):
    calls = []
    counted = lambda *args: calls.append(args) or kernel_basis(*args)  # noqa: E731
    monkeypatch.setattr(ideals_module, "kernel_basis", counted)

    def kernels(ring, *seq):
        _clear_ring_caches()
        calls.clear()
        _regularity(ring, seq, ring.degree_window)
        return len(calls)

    xy = [Generator("x", 2), Generator("y", 2)]
    for p in (2, 3):
        field = GradedRing(BaseRing.prime_field(p), xy, degree_window=8)
        x, y = field.var("x"), field.var("y")
        assert kernels(field, x, y) == kernels(field, x + y, x) == 0
        local = GradedRing(BaseRing.integers_localized(p), xy, degree_window=8)
        x, y = local.var("x"), local.var("y")
        # entry p, the first over a domain without relations, needs no
        # kernel, and nothing after it runs one
        first = kernels(local, local.constant(p))
        assert first == 0
        assert kernels(local, local.constant(p), x, y) == first
        assert kernels(local, local.constant(Fraction(p, 5)), x) == first
        # after p^2 the entries keep the kernel path
        square = local.constant(p * p)
        assert kernels(local, square, x) > kernels(local, square)
        spec = build_scenario(p, 3).spec
        assert kernels(spec.ring, *spec.sequence) == kernels(spec.ring, spec.sequence[0])
    _clear_ring_caches()


def test_first_entry_over_a_domain_matches_kernel_oracle(monkeypatch):
    # With no earlier entry and no relations, a nonzero entry over Z,
    # Z_(p) or F_p passes every degree with no kernel; over Z/4 the kernel
    # path still finds that 2 kills 2.
    calls = []
    counted = lambda *args: calls.append(args) or kernel_basis(*args)  # noqa: E731
    monkeypatch.setattr(ideals_module, "kernel_basis", counted)
    xy = [Generator("x", 2), Generator("y", 2)]
    laurent = [Generator("x", 2), Generator("v", 4, invertible=True)]
    bases = [
        (BaseRing.integers(), [1, -1, 2, 6]),
        (BaseRing.integers_localized(2), [1, 2, 6, Fraction(4, 3)]),
        (BaseRing.integers_localized(3), [1, 3, 6, Fraction(9, 2)]),
        (BaseRing.prime_field(3), [1, 2]),
        (BaseRing.integers_mod(4), [1, 2, 3]),
        (BaseRing.integers_mod(6), [1, 2, 3]),
    ]
    rng = random.Random(1502)
    outcomes = set()
    for base, coeffs in bases:
        plain = GradedRing(base, xy, degree_window=8)
        x, y = plain.var("x"), plain.var("y")
        rings = [
            plain,
            GradedRing(base, laurent, degree_window=6, laurent_window=1),
            GradedRing(base, xy, degree_window=8, relations=[x * x * y - y * y * y]),
        ]
        for ring in rings:
            cases = [(ring.constant(c),) for c in coeffs]
            for _ in range(6):
                length = rng.randint(1, 2)
                cases.append(tuple(_random_homogeneous(rng, ring, coeffs) for _ in range(length)))
            for seq in cases:
                _clear_ring_caches()
                want = ref_regularity_kernel(ring, seq, ring.degree_window)
                _clear_ring_caches()
                calls.clear()
                got = _regularity(ring, seq, ring.degree_window)
                assert got == want, (ring, seq)
                if base.is_domain and not ring.relations and len(seq) == 1:
                    assert not calls, (ring, seq)
                outcomes.add((base.is_domain, want.regular))
    z4 = GradedRing(BaseRing.integers_mod(4), xy, degree_window=8)
    report = _regularity(z4, (z4.constant(2),), 8)
    assert not report.regular and report.first_failure == 1 and report.failure_degree == 0
    _clear_ring_caches()
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _certificate_cases():
    """Seeded sequences over Z, Z_(3), F_3 and Z/4, in rings with a Laurent
    and a degree-0 generator, whose prefixes mix constants (prime,
    composite, p, p^2, p * unit), unit and non-unit multiples of
    generators, repeated generators and entries of several terms."""
    gens = [Generator("x", 2), Generator("y", 2), Generator("t", 0),
            Generator("v", 4, invertible=True)]
    rng = random.Random(2604)
    cases = []
    for base, consts, units, nonunits in (
        (BaseRing.integers(), [3, -5, 6, 4], [1, -1], [2, 3]),
        (BaseRing.integers_localized(3), [3, -3, 9, Fraction(6, 5)], [1, Fraction(2, 5)], [3, 6]),
        (BaseRing.prime_field(3), [], [1, 2], []),
        (BaseRing.integers_mod(4), [2], [1, 3], [2]),
    ):
        ring = GradedRing(base, gens, degree_window=4, laurent_window=1)
        x, y, t, v = (ring.var(n) for n in "xytv")
        vi = ring.parse("v^-1")
        pool = [ring.constant(c) for c in consts]
        pool += [u * g for u in units for g in (x, y, t)]
        pool += [c * g for c in nonunits for g in (x, t)]
        pool += [x + y, x + t * y, t * x, x * x * vi + t, v + x * y, 1 + t]
        for _ in range(24):
            cases.append((ring, tuple(rng.choice(pool) for _ in range(rng.randint(2, 4)))))
        cases.append((ring, (*pool[:1], x, t, y)))
        cases.append((ring, (x, y, x)))
    return cases


def test_regularity_certificate_matches_scan_oracles(monkeypatch):
    # _passes_by_structure decides an entry's pass with no scan when the
    # earlier entries leave a polynomial ring over a domain.  Its verdicts
    # must leave every report equal to both scan oracles', also inside a
    # smaller window; a case where they differ is a defect of the
    # certificate, and the scan's answer stands.  Asked of a prefix and 1,
    # it skips the prefix's is_trivial check, which must then answer False.
    decided, declined, skipped, checked = [], [], [], []
    certify = ideals_module._passes_by_structure

    def spy(ring, prev, x):
        passes = certify(ring, prev, x)
        if x == ring.one():
            (skipped if passes else checked).append((ring, prev))
        elif prev:
            (decided if passes else declined).append((ring, prev, x))
        return passes

    monkeypatch.setattr(ideals_module, "_passes_by_structure", spy)
    outcomes = set()
    for ring, seq in _certificate_cases():
        for window in (ring.degree_window, ring.degree_window - 2):
            _clear_ring_caches()
            want = ref_regularity(ring, seq, window)
            _clear_ring_caches()
            assert ref_regularity_kernel(ring, seq, window) == want, (ring, seq, window)
            _clear_ring_caches()
            assert _regularity(ring, seq, window) == want, (ring, seq, window)
            outcomes.add((want.regular, want.failure_degree is not None))
    _clear_ring_caches()
    assert len(decided) >= 20 and len(declined) >= 20, (len(decided), len(declined))
    # over Z/4 no prefix that passed leaves a domain: Z/4 is none, and the
    # one constant c with Z/4/c a domain, 2, is a zero divisor there
    assert {ring.base for ring, _, _ in decided} == {
        BaseRing.integers(), BaseRing.integers_localized(3), BaseRing.prime_field(3),
    }
    assert BaseRing.integers_mod(4) in {ring.base for ring, _, _ in declined}
    assert outcomes == {(True, False), (False, True), (False, False)}
    for ring, prefix in skipped:
        assert not QuotientRing(ring, prefix).is_trivial(), (ring, prefix)
    _clear_ring_caches()
    assert len(skipped) >= 20 and len(checked) >= 20, (len(skipped), len(checked))
    assert {ring.base for ring, _ in skipped} == {
        BaseRing.integers(), BaseRing.integers_localized(3), BaseRing.prime_field(3),
    }
    assert BaseRing.integers_mod(4) in {ring.base for ring, _ in checked}


# -- one lattice per ideal slice --------------------------------------


@pytest.mark.parametrize(
    "base",
    [BaseRing.integers(), BaseRing.prime_field(3), BaseRing.integers_localized(2)],
    ids=["Z", "F3", "Z(2)"],
)
def test_slice_lattice_is_built_once_on_first_read(monkeypatch, base):
    built = []
    for cls in (IntLattice, LocalLattice, FieldLattice):
        def counting(self, *args, _init=cls.__init__):
            built.append(args)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    _cached_context.cache_clear()
    ring = GradedRing(base, [Generator("x", 2), Generator("y", 2)], degree_window=8)
    x, y = ring.var("x"), ring.var("y")
    ctx = ideal_context(ring, (x, y * y), 6)
    assert ctx.rows and not built
    lat = ctx.lattice
    assert ctx.lattice is lat and len(built) == 1
    # every constructor takes the slice's own rows, not copies made dense
    rows, width = built[0][:2]
    assert width == ctx.width
    assert all(row is ctx_row for row, ctx_row in zip(rows, ctx.rows))
    assert rows == ctx.rows
    cx = KoszulComplex(ring, [x, y], [x * y])
    assert any(cx.relation_rows(i, q) for i in range(3) for q in (4, 6, 8))
    assert len(built) == 1
    _cached_context.cache_clear()


# -- int rows at the ring-lattice seam --------------------------------


def _xyz_ring(base):
    return {"base": base, "generators": [{"name": n, "degree": 2} for n in ("x", "y", "z")]}


SEAM_JOBS = [
    doc
    for base in ("Z", "F3", "Z/4", "Z_(2)")
    for doc in (
        {"command": "tor", "ring": _xyz_ring(base), "window": {"degree": 8},
         "first": ["x", "y", "z"], "second": ["x"], "index": 1},
        {"command": "decompose", "ring": _xyz_ring(base), "window": {"degree": 6},
         "ideals": [["x"], ["y"], ["z"]]},
    )
] + [{"command": "scenario", "scenario": {"p": p, "n": 2}} for p in (2, 3)]


def test_every_lattice_receives_int_rows(monkeypatch):
    # The ring layer hands each lattice, Hermite and Smith routine rows of
    # plain ints; Fractions reach the lattices only as vectors.
    seen = {}

    def recording(name, f):
        def wrapped(*args):
            rows = args[1] if name.endswith("Lattice") else args[0]
            values = (row.values() if isinstance(row, dict) else row for row in rows)
            seen.setdefault(name, set()).update(type(x) for row in values for x in row)
            return f(*args)
        return wrapped

    for cls in (IntLattice, LocalLattice, FieldLattice):
        monkeypatch.setattr(cls, "__init__", recording(cls.__name__, cls.__init__))
    for name in ("hnf_transform", "snf_invariants"):
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    _clear_ring_caches()
    try:
        for doc in SEAM_JOBS:
            assert run_job(parse_job(json.dumps(doc))).status == 0, doc
    finally:
        _clear_ring_caches()
    assert seen == {
        name: {int}
        for name in (
            "IntLattice", "LocalLattice", "FieldLattice", "hnf_transform", "snf_invariants"
        )
    }


# -- one build per Koszul differential slice ---------------------------


def test_koszul_differential_slices_are_built_once(monkeypatch):
    # validate_squares(q) reads d_i and d_{i-1}, and homology_entry(i, q)
    # reads d_i and d_{i+1}: each slice is built on its first read only.
    # So is each chain slice, which the differentials, the relation rows,
    # the cut to the free part and the slice widths all read.
    built, read, slices_built, slices_read = [], [], [], []

    def counting(name, log):
        method = getattr(KoszulComplex, name)

        def spy(self, i, q):
            log.append((i, q))
            return method(self, i, q)

        monkeypatch.setattr(KoszulComplex, name, spy)

    for name, log in (("_differential", built), ("differential_rows", read),
                      ("_chain_slice", slices_built), ("_slice", slices_read)):
        counting(name, log)
    gens = [Generator(n, 2) for n in ("x", "y", "z")]
    for base in (BaseRing.integers(), BaseRing.prime_field(3)):
        for log in (built, read, slices_built, slices_read):
            log.clear()
        ring = GradedRing(base, gens, degree_window=12)
        x, y, z = (ring.var(n) for n in ("x", "y", "z"))
        report = tor(ring, [x, y, z], [x], 1)
        assert report.nonzero_degrees() == [2]
        assert len(built) == len(set(built)) == len(set(read))
        assert len(read) > 1.5 * len(built)
        assert len(slices_built) == len(set(slices_built)) == len(set(slices_read))
        assert len(slices_read) > 3 * len(slices_built)
        built.clear()
        slices_built.clear()
        cx = KoszulComplex(ring, [x, y], [x * y])
        rows = cx.differential_rows(2, 8)
        assert cx.differential_rows(2, 8) is rows and built == [(2, 8)]
        basis = cx.chain_slice(1, 8)
        assert cx.chain_slice(1, 8) is basis and cx.relation_rows(1, 8)
        assert sorted(slices_built) == [(1, 8), (2, 8)]


# -- integer Koszul rows against the base-valued rows ------------------


def ref_differential_rows(cx, i, q):
    """The matrix of d_i on the degree-q slice with entries in the base,
    each built with base arithmetic; the reference for the ``int`` rows."""
    src = cx.chain_slice(i, q)
    tgt = cx.chain_slice(i - 1, q)
    index = {sm: j for j, sm in enumerate(tgt)}
    base = cx.ring.base
    rows = []
    for S, m in src:
        row = [base.zero()] * len(tgt)
        for t, j in enumerate(S):
            rest = tuple(x for x in S if x != j)
            sign = -1 if t % 2 else 1
            for exps, c in cx.j_gens[j].terms.items():
                key = (rest, tuple(a + b for a, b in zip(m, exps)))
                if key in index:
                    row[index[key]] = base.add(row[index[key]], base.mul(c, sign))
        rows.append(row)
    return rows


def ref_differential_columns(cx, i, q):
    """The columns of each row of d_i on the degree-q slice, in the order
    the terms come, t-th entry j of S first, then g_j's terms in order, and
    whether some product (S minus j, m * e) falls outside the target slice."""
    index = {sm: j for j, sm in enumerate(cx.chain_slice(i - 1, q))}
    columns, truncated = [], False
    for S, m in cx.chain_slice(i, q):
        keys = [
            (S[:t] + S[t + 1:], tuple(a + b for a, b in zip(m, e)))
            for t, j in enumerate(S) for e in cx.j_gens[j].terms
        ]
        columns.append([index[k] for k in keys if k in index])
        truncated = truncated or any(k not in index for k in keys)
    return columns, truncated


def test_koszul_rows_from_row_blocks_keep_truncated_slices():
    # With v invertible in the Laurent window 1, v y * m leaves the window
    # for the m with a factor v, so v y's row blocks drop those m, and the
    # slice is truncated; its rows must still hold every term that fits,
    # in the order the terms come, and the flag must be set just where a
    # product is missing.  The entry 1/v, of degree -2, leaves S minus j
    # past the window for some S in the top degrees.  The fraction 3/5
    # puts scale 5 beside the scale 1 of x's own rows.
    gens = [Generator("x", 2), Generator("y", 2), Generator("v", 2, invertible=True)]
    cases = []
    for base, c in ((BaseRing.integers(), -1), (BaseRing.prime_field(3), 2),
                    (BaseRing.integers_localized(2), Fraction(3, 5))):
        ring = GradedRing(base, gens, degree_window=10, laurent_window=1)
        x, y, v = (ring.var(n) for n in ("x", "y", "v"))
        cases.append((ring, [x, v * y * c, x * v + y * y, ring.parse("v^-1")], 5 if c == Fraction(3, 5) else 1))
    # In Z[v^{±1}] every product with 1/v fits, so only the block of S
    # minus j, past the window, truncates the slice of (v, 1/v) in degree 2
    ring = GradedRing(BaseRing.integers(), [gens[2]], degree_window=2, laurent_window=1)
    cases.append((ring, [ring.var("v"), ring.parse("v^-1")], 1))
    flags = {False: 0, True: 0}
    for ring, seq, scale in cases:
        cx = KoszulComplex(ring, seq, seq[:1])
        n = ring.base.characteristic
        assert cx.scale == scale
        for q in ring.even_degrees():
            for i in range(cx.length + 2):
                rows, truncated = cx.differential_rows(i, q)
                columns, want = ref_differential_columns(cx, i, q)
                assert truncated == want, (ring, i, q)
                assert [list(row) for row in rows] == columns, (ring, i, q)
                for row, ref in zip(rows, ref_differential_rows(cx, i, q)):
                    assert all(type(val) is int for val in row.values())
                    got = dense_of(row, len(ref))
                    assert all(
                        (a - b) % n == 0 if n else a == scale * b for a, b in zip(got, ref)
                    ), (ring, i, q)
                flags[truncated] += bool(rows)
            if not any(cx.differential_rows(i, q)[1] for i in range(cx.length + 1)):
                cx.validate_squares(q)
    assert cx.differential_rows(2, 2) == ([{0: -1}], True)
    assert flags[True] >= 30 and flags[False] >= 15, flags


def ref_validate_squares(cx, q, rows_of):
    """d∘d in the relation span, with d∘d combined over the base."""
    base = cx.ring.base
    for i in range(2, cx.length + 1):
        width = len(cx.chain_slice(i - 2, q))
        if not width or not cx.chain_slice(i - 1, q):
            continue
        lat = lattice_for(base, cx.relation_rows(i - 2, q), width)
        for row in rows_of(i):
            comp = ref_combine(base, row, rows_of(i - 1), width)
            if any(comp) and not lat.contains(sparse_of(comp)):
                raise SemanticError("Koszul differential does not square to zero")


def ref_homology_entry(cx, i, q):
    """H_i in degree q from the base-valued rows, cleared by their own
    common denominator before the kernel is taken."""
    width = len(cx.chain_slice(i, q))
    if not width:
        return ModuleEntry()
    base = cx.ring.base
    d_i = ref_differential_rows(cx, i, q)
    target = len(cx.chain_slice(i - 1, q))
    if not target or not d_i:
        z_rows = [[int(a == b) for b in range(width)] for a in range(width)]
    else:
        mat, _ = cleared_matrix(d_i)
        rows = sparse_rows(mat) + cx.relation_rows(i - 1, q)
        kernel = [dense_of(k, len(rows)) for k in kernel_basis(base, rows, target)]
        z_rows = [x for x in (k[: len(d_i)] for k in kernel) if any(x)]
    b_rows = sparse_rows(ref_differential_rows(cx, i + 1, q)) + cx.relation_rows(i, q)
    return quotient_invariants(sparse_rows(z_rows), b_rows, width, base)


KOSZUL_BASES = [
    # (base, a, b): the sequence is (a x, y + b x, z), with a a unit of the
    # base other than 1 and, over Z_(2), b a p-unit fraction, so scale is 3
    (BaseRing.integers(), 3, -1),
    (BaseRing.prime_field(3), 2, 1),
    (BaseRing.integers_mod(4), 3, 2),
    (BaseRing.integers_mod(6), 5, 3),
    (BaseRing.integers_localized(2), 3, Fraction(5, 3)),
]


@pytest.mark.parametrize("base, a, b", KOSZUL_BASES, ids=["Z", "F3", "Z/4", "Z/6", "Z_(2)"])
def test_row_builders_store_no_zero(base, a, b):
    # Every row between ring, ideals and linalg is a {col: value} dict on
    # its slice that stores no zero: the ideal-slice rows, with and without
    # ring relations, the Koszul differentials and relation rows, the
    # kernel rows and the cycle rows built from them.
    gens = [Generator(n, 2) for n in ("x", "y", "z")]
    plain = GradedRing(base, gens, degree_window=8)
    x, y, z = (plain.var(n) for n in ("x", "y", "z"))
    rel = GradedRing(base, gens, degree_window=8, relations=[x * y * b - z * z])
    counts = dict.fromkeys(("slice", "differential", "relation", "kernel", "cycle"), 0)

    def check(kind, rows, width):
        for row in rows:
            assert isinstance(row, dict) and all(row.values()), (kind, row)
            assert all(type(j) is int and 0 <= j < width for j in row), (kind, row)
        counts[kind] += len(rows)

    for ring in (plain, rel):
        x, y, z = (ring.var(n) for n in ("x", "y", "z"))
        j_gens, k_gens = [x * a, y + x * b, z], [z, y * y]
        cx = KoszulComplex(ring, j_gens, k_gens)
        for q in ring.even_degrees(8):
            for ideal in (j_gens, k_gens, [x * y * a, y * z]):
                ctx = ideal_context(ring, ideal, q)
                check("slice", ctx.rows, ctx.width)
            for i in range(cx.length + 1):
                width, target = len(cx.chain_slice(i, q)), len(cx.chain_slice(i - 1, q))
                d_i, _ = cx.differential_rows(i, q)
                rels = cx.relation_rows(i - 1, q)
                check("differential", d_i, target)
                check("relation", cx.relation_rows(i, q), width)
                if d_i and target:
                    check("kernel", kernel_basis(base, d_i + rels, target), len(d_i) + len(rels))
                check("cycle", _cycle_rows(base, d_i, rels, width, target), width)
    assert all(counts.values()), counts


@pytest.mark.parametrize("base, a, b", KOSZUL_BASES, ids=["Z", "F3", "Z/4", "Z/6", "Z_(2)"])
def test_int_koszul_rows_match_base_valued_rows(base, a, b):
    ring = GradedRing(base, [Generator(n, 2) for n in ("x", "y", "z")], degree_window=10)
    x, y, z = (ring.var(n) for n in ("x", "y", "z"))
    j_gens, k_gens = [x * a, y + x * b, z], [z, y * y]
    cx = KoszulComplex(ring, j_gens, k_gens)
    n = base.characteristic
    assert cx.scale == (3 if b == Fraction(5, 3) else 1)
    for q in ring.even_degrees(10):
        for i in range(cx.length + 2):
            rows, truncated = cx.differential_rows(i, q)
            ref = ref_differential_rows(cx, i, q)
            assert not truncated and len(rows) == len(ref)
            for row, want in zip(rows, ref):
                assert all(type(v) is int for v in row.values())
                row = dense_of(row, len(want))
                if n:
                    assert all((v - w) % n == 0 for v, w in zip(row, want))
                else:
                    assert row == [cx.scale * w for w in want]
        cx.validate_squares(q)
        ref_validate_squares(cx, q, lambda i: ref_differential_rows(cx, i, q))
    for i in range(3):
        want = {}
        for q in ring.even_degrees(10):
            entry = ref_homology_entry(cx, i, q)
            if not entry.is_zero():
                want[q] = entry
        assert want and tor(ring, j_gens, k_gens, i).entries == want
    assert tor1_equals_intersection_over_product(ring, j_gens, k_gens)
    # one flipped sign in d_2 breaks d∘d = 0, on both routes
    rows, truncated = cx.differential_rows(2, 4)
    flipped = [dict(row) for row in rows]
    j = min(flipped[0])
    flipped[0][j] = -flipped[0][j]
    ref = ref_differential_rows(cx, 2, 4)
    ref[0][j] = base.neg(ref[0][j])
    cx._differentials[(2, 4)] = (flipped, truncated)
    with pytest.raises(SemanticError):
        cx.validate_squares(4)
    with pytest.raises(SemanticError):
        ref_validate_squares(cx, 4, lambda i: ref if i == 2 else ref_differential_rows(cx, i, 4))


# -- Koszul homology over a split R/K ----------------------------------


SPLIT_BASES = [
    BaseRing.integers(), BaseRing.prime_field(3),
    BaseRing.integers_localized(2), BaseRing.integers_localized(3),
]


def _split_koszul_cases():
    """``(ring, J, K, taken)``: seeded sequences J over Z, F_3, Z_(2) and
    Z_(3), in x, y, z and in x, y, v^{±1}, against quotients R/K that
    ``split_ideal`` reads as generators alone (``taken``), and against
    quotients over Z/4 and Z/6, with a constant, not split, or in a ring
    with relations, where ``homology_entry`` keeps its lattice path."""
    xyz = [Generator(n, 2) for n in ("x", "y", "z")]
    laurent = [Generator("x", 2), Generator("y", 2), Generator("v", 2, invertible=True)]
    rng = random.Random(3307)
    cases = []
    for base in SPLIT_BASES + [BaseRing.integers_mod(4), BaseRing.integers_mod(6)]:
        taken = base in SPLIT_BASES
        ring = GradedRing(base, xyz, degree_window=8)
        x, y, z = (ring.var(n) for n in ("x", "y", "z"))
        pool = [x, y, z, x * 2, y * 2 + z, x + y, x * y + z * z, y * z - x * x * 5]
        for k_gens in ([x], [x * -1], [x, z], [z, y * -1], []):
            cases.append((ring, [x, y * 2, z], k_gens, taken))
            for _ in range(3):
                j_gens = rng.sample(pool, rng.randint(1, 3))
                cases.append((ring, j_gens, k_gens, taken))
        ring = GradedRing(base, laurent, degree_window=6, laurent_window=1)
        x, y, v = (ring.var(n) for n in ("x", "y", "v"))
        for j_gens in ([x, y], [x * 2, y], [x * v, y], [y * v + x * y * 2]):
            cases.append((ring, j_gens, [x], taken))
    z2 = GradedRing(BaseRing.integers_localized(2), xyz, degree_window=8)
    x, y, z = (z2.var(n) for n in ("x", "y", "z"))
    for k_gens in ([x * -1], [x, z], [y * 3], [x * Fraction(3, 5)]):
        for j_gens in ([x, y + x * Fraction(5, 3), z], [x * Fraction(2, 3), y, z * 3]):
            cases.append((z2, j_gens, k_gens, True))
    z = GradedRing(BaseRing.integers(), xyz, degree_window=8)
    x, y = z.var("x"), z.var("y")
    cases.append((z, [x, y], [x * 2], False))
    cases.append((z, [x, y], [y * y], False))
    z3 = GradedRing(BaseRing.integers_localized(3), xyz, degree_window=8)
    x, y = z3.var("x"), z3.var("y")
    cases.append((z3, [x, y], [z3.constant(3), x], False))
    rel = GradedRing(BaseRing.integers(), xyz, degree_window=8, relations=[{(0, 0, 2): 1, (1, 1, 0): -1}])
    x, y = rel.var("x"), rel.var("y")
    cases.append((rel, [x, y], [x], False))
    return cases


def test_split_koszul_homology_matches_lattice_oracle(monkeypatch):
    # Over a split R/K, homology_entry reads H_i off one rank and one Smith
    # form of the cut differentials; it must give the lattice oracle's
    # entry for every i <= length + 1 and every degree, and a truncated
    # slice must still raise.  The spy sees the path answer on every
    # nonempty slice of a split case, and never elsewhere.
    answers = []
    free = ideals_module.homology_invariants

    def spy(*args):
        got = free(*args)
        answers.append(got is not None)
        return got

    monkeypatch.setattr(ideals_module, "homology_invariants", spy)
    counts = {True: 0, False: 0}
    torsion = truncated = 0
    for ring, j_gens, k_gens, taken in _split_koszul_cases():
        cx = KoszulComplex(ring, j_gens, k_gens)
        answers.clear()
        slices = 0
        for q in ring.even_degrees():
            for i in range(cx.length + 2):
                if cx.differential_rows(i, q)[1] or cx.differential_rows(i + 1, q)[1]:
                    with pytest.raises(WindowOverflow):
                        cx.homology_entry(i, q)
                    truncated += 1
                    continue
                entry = cx.homology_entry(i, q)
                assert entry == ref_homology_entry(cx, i, q), (ring, j_gens, k_gens, i, q)
                slices += bool(cx.chain_slice(i, q))
                torsion += bool(taken and entry.factors and ring.base.characteristic == 0)
        assert answers == [True] * slices if taken else not any(answers), (ring, j_gens, k_gens)
        counts[taken] += 1
    _clear_ring_caches()
    assert counts[True] >= 80 and counts[False] >= 40, counts
    assert torsion >= 20 and truncated >= 10, (torsion, truncated)


def test_split_koszul_tor1_matches_intersection_over_product():
    # An independent route: (J ∩ K) / (J K) read off the slice lattices,
    # with no Koszul homology, against Tor_1 on the split path.
    checked = set()
    for ring, j_gens, k_gens, taken in _split_koszul_cases():
        cx = KoszulComplex(ring, j_gens, k_gens)
        if any(
            cx.differential_rows(i, q)[1]
            for q in ring.even_degrees() for i in range(cx.length + 1)
        ):
            continue  # tor raises WindowOverflow on both routes
        if taken and check_regular_sequence(ring, j_gens).regular:
            assert tor1_equals_intersection_over_product(ring, j_gens, k_gens), (ring, j_gens, k_gens)
            checked.add(ring.base)
    _clear_ring_caches()
    assert checked == set(SPLIT_BASES)


@pytest.mark.parametrize("base", SPLIT_BASES, ids=["Z", "F3", "Z_(2)", "Z_(3)"])
def test_split_koszul_path_keeps_the_square_check(monkeypatch, base):
    # The split path builds no cycle lattice, so no "relation span escapes
    # the cycle span" check runs there: validate_squares stands in for it.
    # One flipped sign in d_2, at the row of e_y ∧ e_z and its entry y e_z,
    # gives d∘d = -2yz, outside (x): it must raise on both routes, and tor
    # must raise at degree 4 before reporting that degree's entry.
    ring = GradedRing(base, [Generator(n, 2) for n in ("x", "y", "z")], degree_window=8)
    x, y, z = (ring.var(n) for n in ("x", "y", "z"))
    cx = KoszulComplex(ring, [x, y, z], [x])
    row = cx.chain_slice(2, 4).index(((1, 2), (0, 0, 0)))
    col = cx.chain_slice(1, 4).index(((2,), (0, 1, 0)))
    build = KoszulComplex._differential

    def flipped(self, i, q):
        rows, truncated = build(self, i, q)
        if (i, q) == (2, 4):
            rows = [dict(r) for r in rows]
            rows[row][col] = -rows[row][col]
        return rows, truncated

    ref = ref_differential_rows(cx, 2, 4)
    ref[row][col] = base.neg(ref[row][col])
    monkeypatch.setattr(KoszulComplex, "_differential", flipped)
    with pytest.raises(SemanticError):
        cx.validate_squares(4)
    with pytest.raises(SemanticError):
        ref_validate_squares(cx, 4, lambda i: ref if i == 2 else ref_differential_rows(cx, i, 4))
    reported = []
    entry = KoszulComplex.homology_entry
    monkeypatch.setattr(
        KoszulComplex, "homology_entry",
        lambda self, i, q: reported.append(q) or entry(self, i, q),
    )
    with pytest.raises(SemanticError):
        tor(ring, [x, y, z], [x], 1)
    assert reported == [0, 2]
