"""Graded ring presentations, windowed bases and canonical normal forms."""
import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from test_linalg import over, sparse_of, sparse_rows

import regquot.ring as ring_module
from regquot.cli import run_job
from regquot.errors import (
    MixedRings,
    NonHomogeneous,
    SemanticError,
    WindowOverflow,
)
from regquot.ideals import _regularity
from regquot.jobio import parse_job
from regquot.linalg import IntLattice, LocalLattice, cleared_rows, p_part, snf_invariants
from regquot.ring import (
    GradedRing,
    Generator,
    IdealContext,
    QuotientRing,
    RingElement,
    ideal_context,
    normal_form,
    normal_form_any,
)
from regquot.scalars import INTEGERS_LOCALIZED, BaseRing


def poly_f2_xy(window=12):
    return GradedRing(
        BaseRing.prime_field(2),
        [Generator("x", 2), Generator("y", 2)],
        degree_window=window,
    )


def laurent_local(p=2, window=8):
    return GradedRing(
        BaseRing.integers_localized(p),
        [Generator("v1", 2, invertible=True)],
        degree_window=window,
    )


def integers_ring(window=4):
    return GradedRing(BaseRing.integers(), [], degree_window=window)


def test_basic_arithmetic_char2():
    R = poly_f2_xy()
    x, y = R.var("x"), R.var("y")
    assert (x + y) * (x - y) == x**2 + y**2
    assert (x + y) ** 2 == x**2 + y**2
    assert x - x == R.zero()
    assert repr(x**2 + y**2) in ("y^2 + x^2", "x^2 + y^2")


def test_distributivity_and_associativity_random():
    R = poly_f2_xy(12)
    rng = Random(5)

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(0, 1)
            b = rng.randint(0, 1)
            terms[(a, b)] = rng.randint(0, 1)
        return R.element(terms)

    for _ in range(30):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def test_window_overflow_on_product():
    R = poly_f2_xy(window=4)
    x = R.var("x")
    with pytest.raises(WindowOverflow):
        _ = (x**2) * x


def test_laurent_window():
    R = laurent_local()
    v = R.var("v1")
    vinv = R.monomial([-1])
    assert v * vinv == R.one()
    with pytest.raises(WindowOverflow):
        R.monomial([3])
    with pytest.raises(WindowOverflow):
        _ = R.monomial([2]) * v


def test_degree_basis_examples():
    R = poly_f2_xy()
    basis4 = R.degree_basis(4)
    assert [repr(m) for m in basis4] == ["y^2", "x*y", "x^2"]
    assert R.degree_basis(0) == [R.one()]
    assert R.degree_basis(2 + 1) == []

    L = laurent_local()
    assert [repr(m) for m in L.degree_basis(-2)] == ["v1^-1"]
    with pytest.raises(WindowOverflow):
        L.degree_basis(100)


def test_degree_zero_generator_is_capped_by_window():
    R = GradedRing(BaseRing.integers(), [Generator("v", 0)], degree_window=5)
    assert len(R.degree_exps(0)) == 6
    with pytest.raises(WindowOverflow):
        R.monomial([6])


def ref_degree_exps(ring, d):
    """Every exponent tuple of degree ``d`` that the window allows, sorted,
    found by a scan of the whole box of exponents."""
    lw = ring.laurent_window
    slack = d + lw * sum(g.degree for g in ring.generators if g.invertible)
    ranges = []
    for g in ring.generators:
        if g.invertible:
            ranges.append(range(-lw, lw + 1))
        elif g.degree == 0:
            ranges.append(range(ring.degree_window + 1))
        else:
            ranges.append(range(slack // g.degree + 1))
    return tuple(sorted(e for e in product(*ranges) if ring.monomial_degree(e) == d))


def test_degree_exps_match_brute_force():
    rng = Random(1202)
    # one generator: nothing before the last one bounds what it must solve for
    rings = [
        GradedRing(BaseRing.integers(), [Generator("g", deg, invertible=inv)], 8, lw)
        for deg in (0, 2, 4) for inv in (False, True) for lw in (0, 1)
    ]
    for _ in range(40):
        gens = [
            Generator("g%d" % i, rng.choice([0, 2, 2, 4, 6]), invertible=rng.random() < 0.4)
            for i in range(rng.randint(0, 3))
        ]
        rings.append(GradedRing(
            BaseRing.integers(), gens,
            degree_window=rng.randint(0, 8), laurent_window=rng.randint(0, 2),
        ))
    # degrees whose gcds leave most exponent prefixes without a monomial,
    # as in the Morava rings, whose generators have degrees 2(p^i - 1)
    for _ in range(30):
        gens = [
            Generator("g%d" % i, rng.choice([0, 4, 6, 10, 16]), invertible=rng.random() < 0.3)
            for i in range(rng.randint(2, 4))
        ]
        rings.append(GradedRing(
            BaseRing.integers(), gens,
            degree_window=rng.randint(0, 20), laurent_window=rng.randint(0, 2),
        ))
    rings.append(GradedRing(
        BaseRing.integers_localized(3),
        [Generator("v1", 4), Generator("v2", 16), Generator("v3", 52, invertible=True)], 54, 2,
    ))
    last = [g.generators[-1] for g in rings if g.generators]
    # invertible, degree-0 and plain last generators all occur
    assert {(g.invertible, g.degree > 0) for g in last} == {
        (True, True), (True, False), (False, True), (False, False)
    }
    for ring in rings:
        for d in range(ring.min_monomial_degree() - 8, ring.degree_window + 1):
            assert ring.degree_exps(d) == ref_degree_exps(ring, d), (ring, d)


def test_mixed_rings_error():
    a = poly_f2_xy().var("x")
    b = poly_f2_xy(window=10).var("x")
    with pytest.raises(MixedRings):
        _ = a + b


def test_normal_form_polynomial_membership():
    R = poly_f2_xy()
    x, y = R.var("x"), R.var("y")
    e = x**2 * y + x * y**2
    assert normal_form(e, [x**2, y**2]).is_zero()
    r = normal_form(x * y, [x**2, y**2])
    assert r == x * y
    with pytest.raises(NonHomogeneous):
        normal_form(x + x**2, [x])


def test_normal_form_integer_lattice():
    Z = integers_ring()
    p3 = Z.constant(8)
    p4 = Z.constant(16)
    r = normal_form(p3, [p4])
    assert r == Z.constant(8)
    assert normal_form(Z.constant(20), [p4]) == Z.constant(4)
    assert normal_form(Z.constant(-1), [Z.constant(5)]) == Z.constant(4)


def test_normal_form_local_integers():
    L = laurent_local()
    two = L.constant(2)
    # 3 is a unit in Z_(2), so (3) is everything while (2) is the maximal ideal
    assert normal_form(L.constant(3), [two]) == L.one()
    assert normal_form(L.constant(3), [L.constant(3)]).is_zero()
    assert normal_form(L.constant(Fraction(2, 3)), [two]).is_zero()


def test_normal_form_is_canonical_on_cosets():
    R = poly_f2_xy()
    x, y = R.var("x"), R.var("y")
    gens = (x**2 + x * y, y**2)
    rng = Random(9)
    for _ in range(25):
        d = rng.choice([4, 6, 8])
        exps = R.degree_exps(d)
        e = R.element({m: rng.randint(0, 1) for m in exps})
        shift = R.zero()
        for g in gens:
            for m in R.degree_exps(d - g.degree()):
                if rng.random() < 0.4:
                    shift = shift + R.monomial(m) * g
        lhs = normal_form(e, gens) if e.is_homogeneous() else None
        if lhs is not None and (e + shift).is_homogeneous():
            assert lhs == normal_form(e + shift, gens)
            assert normal_form(lhs, gens) == lhs


def test_ring_relations_are_reduced():
    base = BaseRing.integers()
    R = GradedRing(base, [], degree_window=2)
    Rmod = GradedRing(base, [], degree_window=2, relations=[R.constant(6)])
    e = Rmod.constant(7)
    assert normal_form(e, []) == Rmod.one()


def test_quotient_ring_view():
    Z = integers_ring()
    F = QuotientRing(Z, [Z.constant(16)])
    assert F.nf(Z.constant(20)) == Z.constant(4)
    assert F.eq(Z.constant(3), Z.constant(19))
    assert not F.is_trivial()
    assert F.entry(0) == (0, (16,))
    unit = QuotientRing(Z, [Z.constant(1)])
    assert unit.is_trivial()


def test_quotient_entries_field_and_local():
    R = poly_f2_xy()
    x, y = R.var("x"), R.var("y")
    F = QuotientRing(R, [x, y])
    assert F.entry(0) == (0, (2,))
    assert F.entry(2) == (0, ())
    L = laurent_local()
    K = QuotientRing(L, [L.constant(2)])
    # one F_2 line in each even degree within the laurent window
    assert K.entry(0) == (0, (2,))
    assert K.entry(2) == (0, (2,))
    assert K.entry(-2) == (0, (2,))


def test_parse_round_trip():
    R = poly_f2_xy()
    e = R.parse("x^2*y + x*y^2")
    assert e == R.var("x") ** 2 * R.var("y") + R.var("x") * R.var("y") ** 2
    L = laurent_local()
    assert L.parse("v1^-1") == L.monomial([-1])
    assert L.parse("2*v1 + 1") == L.var("v1") * 2 + L.one()
    with pytest.raises(SemanticError):
        R.parse("z + 1")


def test_generator_validation():
    with pytest.raises(SemanticError):
        GradedRing(BaseRing.integers(), [Generator("x", 3)], degree_window=4)
    with pytest.raises(SemanticError):
        GradedRing(
            BaseRing.integers(),
            [Generator("x", 2), Generator("x", 4)],
            degree_window=4,
        )


def test_quotient_nf_memo_matches_uncached_normal_form():
    """``QuotientRing.nf`` answers from a per-ring memo.  On seeded
    homogeneous and inhomogeneous elements over Z, F_3, Z/4 and Z_(2), and
    over a ring with a relation, every answer equals an uncached
    ``normal_form_any``, is its own normal form, and comes back equal when
    asked again after other reductions."""
    gens = [Generator("x", 2), Generator("y", 4)]
    ints = [0, 1, -1, 2, 3, 6]
    rings = [
        (GradedRing(base, gens, degree_window=8), ints)
        for base in (
            BaseRing.integers(),
            BaseRing.prime_field(3),
            BaseRing.integers_mod(4),
        )
    ]
    local = GradedRing(BaseRing.integers_localized(2), gens, degree_window=8)
    rings.append((local, ints + [Fraction(1, 3), Fraction(2, 3)]))
    # x*y = 2*x^3 in degree 6
    rings.append(
        (
            GradedRing(
                BaseRing.integers(),
                gens,
                degree_window=8,
                relations=[{(1, 1): 1, (3, 0): -2}],
            ),
            ints,
        )
    )
    nonzero = inhomogeneous = 0
    for R, values in rings:
        rng = Random("nf-memo:%r:%d" % (R, len(R.relations)))
        x, y = R.var("x"), R.var("y")
        q = QuotientRing(R, [x * x + y * 3, x * 2])
        elems = []
        for _ in range(30):
            terms = {}
            for d in rng.sample([0, 2, 4, 6, 8], rng.randint(1, 2)):
                for m in R.degree_exps(d):
                    terms[m] = rng.choice(values)
            elems.append(R.element(terms))
        expected = [normal_form_any(e, q.ideal) for e in elems]
        for e, want in zip(elems, expected):
            got = q.nf(e)
            assert got == want and got.ring is R
            assert q.nf(got) == got
            inhomogeneous += not e.is_homogeneous()
            nonzero += not got.is_zero()
        order = list(range(len(elems)))
        rng.shuffle(order)
        for i in order:
            assert q.nf(elems[i]) == expected[i]
    assert nonzero and inhomogeneous


def test_quotient_operations_match_fresh_normal_forms():
    """``QuotientRing.mul``, ``add`` and ``neg`` reduce through the ring's
    ``nf`` memo.  On seeded pairs of normal forms over the K(2) at p=2
    coefficient quotient Z_(2)[v1, v2^{±1}]/(2, v1), an F_3 quotient and a
    Z/4 quotient, each answer, asked twice and in both operand orders,
    equals a fresh ``normal_form_any`` of the raw result; a product that
    leaves the window raises ``WindowOverflow`` every time it is asked."""
    k2 = GradedRing(
        BaseRing.integers_localized(2),
        [Generator("v1", 2), Generator("v2", 6, invertible=True)],
        degree_window=8,
    )
    gens = [Generator("x", 2), Generator("y", 4)]
    quotients = [QuotientRing(k2, [k2.constant(2), k2.var("v1")])]
    for base in (BaseRing.prime_field(3), BaseRing.integers_mod(4)):
        R = GradedRing(base, gens, degree_window=8)
        x, y = R.var("x"), R.var("y")
        quotients.append(QuotientRing(R, [x * x + y * 3, x * 2]))
    values = [1, -1, 2, 3, Fraction(1, 3)]
    overflows = nonzero = 0
    for q in quotients:
        R = q.ring
        rng = Random("quotient-tables:%r" % (R,))
        assert q.one() is q.one() and q.one() == normal_form_any(R.one(), q.ideal)
        elems = []
        for _ in range(12):
            terms = {}
            for d in rng.sample(list(R.even_degrees()), 2):
                exps = R.degree_exps(d)
                for m in rng.sample(exps, min(2, len(exps))):
                    terms[m] = rng.choice(values if R is k2 else values[:4])
            elems.append(normal_form_any(R.element(terms), q.ideal))
        for _ in range(40):
            a, b = rng.choice(elems), rng.choice(elems)
            want = {
                q.mul: outcome(lambda: normal_form_any(a * b, q.ideal)),
                q.add: normal_form_any(a + b, q.ideal),
            }
            for op, expected in want.items():
                for u, v in ((a, b), (b, a), (a, b)):
                    assert outcome(lambda: op(u, v)) == expected
            overflows += want[q.mul] is WindowOverflow
            nonzero += want[q.mul] is not WindowOverflow and not want[q.mul].is_zero()
            for _ in range(2):
                assert q.neg(a) == normal_form_any(-a, q.ideal)
    # v2^2 has degree 12 > 8: the first call and the second both raise
    v2 = quotients[0].nf(k2.var("v2"))
    for _ in range(2):
        with pytest.raises(WindowOverflow):
            quotients[0].mul(v2, v2)
    assert overflows and nonzero


def test_quotient_nf_memo_is_per_ring():
    """Two rings that differ only in the degree window share no memo
    entries: an element of one is still refused by the quotient of the
    other after both have reduced the element with the same terms."""
    rings = [
        GradedRing(BaseRing.integers(), [Generator("x", 2)], degree_window=w)
        for w in (4, 6)
    ]
    quotients = [QuotientRing(R, [R.constant(3)]) for R in rings]
    elems = [R.var("x") * 5 for R in rings]
    for q, e, R in zip(quotients, elems, rings):
        got = q.nf(e)
        assert got.ring is R and got == R.var("x") * 2
    for q, e in ((quotients[0], elems[1]), (quotients[1], elems[0])):
        with pytest.raises(MixedRings):
            q.nf(e)


# -- int slice rows against the base-valued row loop -------------------


def ref_slice_rows(ring, gens, d):
    """The tagged ``(tag, row)`` pairs of one ideal slice, each row built
    entry by entry with the base ring's own arithmetic, and over F_p and
    Z/m the ``("modulus", j, None)`` rows that lift the slice to Z."""
    base = ring.base
    exps = list(ring.degree_exps(d))
    index = {e: j for j, e in enumerate(exps)}
    out = []
    for gi, g in enumerate(tuple(gens) + ring.relations):
        if g.is_zero():
            continue
        gd = g.degree()
        if d - gd > ring.degree_window:
            continue
        for m in ring.degree_exps(d - gd):
            row = [base.zero()] * len(exps)
            ok = True
            for e, c in g.terms.items():
                prod = tuple(a + b for a, b in zip(m, e))
                if prod not in index:
                    ok = False
                    break
                row[index[prod]] = base.add(row[index[prod]], c)
            if ok and any(x != 0 for x in row):
                out.append((("gen" if gi < len(gens) else "relation", gi, m), row))
    for j in range(len(exps) if base.characteristic else 0):
        row = [0] * len(exps)
        row[j] = base.characteristic
        out.append((("modulus", j, None), row))
    return out


def test_int_slice_rows_match_base_valued_rows():
    xy = [Generator("x", 2), Generator("y", 2)]
    z2, z3 = BaseRing.integers_localized(2), BaseRing.integers_localized(3)
    plain = GradedRing(z3, xy, degree_window=8)
    x, y = plain.var("x"), plain.var("y")
    third, half = Fraction(1, 3), Fraction(1, 2)
    rings = [
        (GradedRing(BaseRing.integers(), xy, degree_window=8), [1, -1, 2, 3, -6]),
        (GradedRing(BaseRing.prime_field(3), xy, degree_window=8), [1, 2]),
        (GradedRing(BaseRing.integers_mod(4), xy, degree_window=8), [1, 2, 3]),
        (GradedRing(BaseRing.integers_mod(6), xy, degree_window=8), [1, 2, 3, 5]),
        (GradedRing(z2, xy, degree_window=8), [1, 2, third, Fraction(-4, 5), Fraction(6, 7)]),
        (
            GradedRing(z3, xy, degree_window=8, relations=[x * y * half - 5 * y * y]),
            [1, 3, half, Fraction(-3, 4), Fraction(9, 5)],
        ),
    ]
    rng = Random(8)
    solved = 0
    for ring, coeffs in rings:
        base = ring.base
        for _ in range(5):
            gens = []
            for _ in range(rng.randint(1, 3)):
                exps = ring.degree_exps(rng.choice([0, 2, 2, 4]))
                picked = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
                gens.append(ring.element({e: rng.choice(coeffs) for e in picked}))
            if rng.random() < 0.3:
                gens.insert(rng.randint(0, len(gens)), ring.zero())
            for d in ring.even_degrees():
                ctx = IdealContext(ring, gens, d)
                ref = ref_slice_rows(ring, gens, d)
                assert ctx.tags == [tag for tag, _ in ref if tag[0] != "modulus"]
                ref_rows = [row for _, row in ref]
                # the padded integer route: one integer (or p-local) lattice
                # and Smith form over the rows and the modulus rows
                if base.kind == INTEGERS_LOCALIZED:
                    ref_lat = LocalLattice(sparse_rows(ref_rows), ctx.width, base.p)
                    cleared = sparse_rows(cleared_rows(ref_rows))
                    invs = [p_part(v, base.p) for v in snf_invariants(cleared)]
                else:
                    ref_lat = IntLattice(sparse_rows(ref_rows), ctx.width)
                    invs = snf_invariants(sparse_rows(ref_rows))
                factors = tuple(sorted(v for v in invs if v > 1))
                assert ctx.quotient_entry() == (ctx.width - len(invs), factors)
                rows_of = dict(ref)
                for k in range(6):
                    if k % 2 and ref_rows:
                        # a vector of the span, so solve_vector must answer
                        vec = [base.zero()] * ctx.width
                        for row in rng.sample(ref_rows, min(len(ref_rows), 3)):
                            c = base.normalize(rng.choice(coeffs))
                            vec = [base.add(a, base.mul(c, b)) for a, b in zip(vec, row)]
                    else:
                        vec = [base.normalize(rng.choice(coeffs + [0, 0])) for _ in range(ctx.width)]
                    sv, w = sparse_of(vec), ctx.width
                    assert over(ctx.lattice.reduce(sv), w) == over(ref_lat.reduce(sv), w)
                    pairs = ctx.solve_vector(sv)
                    if not ref_lat.contains(sv):
                        assert pairs is None
                        continue
                    out = [base.zero()] * ctx.width
                    for tag, c in pairs:
                        out = [base.add(a, base.mul(c, b)) for a, b in zip(out, rows_of[tag])]
                    assert out == vec
                    solved += any(vec)
    assert solved >= 100, solved


def test_cached_slices_keep_their_shared_rows(monkeypatch):
    # Ideal slices share the cached row block of each polynomial and degree
    # with each other and with the regularity check.  After a scenario, a
    # Z_(2) tor, a Z decompose and two Z_(2) check-regular jobs in one
    # process, every slice still cached equals a fresh build and the
    # base-valued rows, so no consumer changed a shared row.  The
    # regularity certificate decides the scenario's and the tor's entries
    # with no scan, and split_ideal reads the scenario's ideals, so its
    # normal forms build no slice; in the check-regular jobs, z after
    # (x, x + y) and after (2, x, y + x) is not decided by it, so the scan
    # reads the shared rows of those prefixes, and 1 is reduced on the
    # twisted prefix's own slice.
    built = []
    cached = ring_module._cached_context

    def spy(*key):
        built.append(key)
        return cached(*key)

    monkeypatch.setattr(ring_module, "_cached_context", spy)
    cached.cache_clear()
    _regularity.cache_clear()
    xyz = {"base": "Z_(2)", "generators": [{"name": n, "degree": 2} for n in "xyz"]}
    docs = [
        {"command": "scenario", "scenario": {"p": 2, "n": 3}},
        {"command": "tor", "ring": xyz, "window": {"degree": 16},
         "first": ["x", "y", "z"], "second": ["x"], "index": 1},
        {"command": "decompose", "ring": dict(xyz, base="Z"), "window": {"degree": 12},
         "ideals": [["x"], ["y"], ["z"]]},
        {"command": "check-regular", "ring": xyz, "window": {"degree": 40},
         "sequence": ["x", "x + y", "z"]},
        {"command": "check-regular", "ring": xyz, "window": {"degree": 16},
         "sequence": ["2", "x", "y + x", "z"]},
    ]
    for doc in docs:
        assert run_job(parse_job(json.dumps(doc))).status == 0
    slices = {key: cached(*key) for key in built}
    assert len(slices) > 100, len(slices)
    ring_module._row_block.cache_clear()
    for (ring, gens, d, _), ctx in slices.items():
        fresh = IdealContext(ring, gens, d)
        assert (ctx.rows, ctx.tags, ctx.scale) == (fresh.rows, fresh.tags, fresh.scale)
        ref = [(tag, row) for tag, row in ref_slice_rows(ring, gens, d) if tag[0] != "modulus"]
        assert ctx.tags == [tag for tag, _ in ref]
        assert ctx.rows == [{j: ctx.scale * x for j, x in enumerate(row) if x} for _, row in ref]
    cached.cache_clear()


def test_ideal_contexts_follow_each_generators_own_term_order():
    # x*z + z^2 and z^2 + x*z are one polynomial with its terms in two
    # orders.  The cached context of each lists the columns of a row in
    # the order of its own terms, key for key as a fresh build does,
    # whichever of the two the process asked for first.
    R = GradedRing(BaseRing.integers(), [Generator(n, 2) for n in "xyz"], degree_window=8)
    x, z = R.var("x"), R.var("z")
    polys = [x * z + z * z, z * z + x * z]
    assert polys[0] == polys[1]

    def items(ctx):
        return [list(row.items()) for row in ctx.rows]

    fresh = [items(IdealContext(R, [g], 6)) for g in polys]
    assert fresh[0] != fresh[1]
    for order in ([0, 1], [1, 0]):
        ring_module._cached_context.cache_clear()
        for k in order:
            assert items(ideal_context(R, [polys[k]], 6)) == fresh[k], (order, k)
    with pytest.raises(MixedRings):
        ideal_context(R, [poly_f2_xy().var("x")], 6)
    ring_module._cached_context.cache_clear()


def test_rows_are_built_on_first_read_from_the_rescaled_blocks():
    # A context concatenates its rows only when they are read, and the
    # columns of a slice spanned by unit vectors come from the blocks, so
    # reading them builds none.  The rows are then the blocks of the
    # generators and relations in order, each times scale over its own
    # scale: over Z_(2), x/3 + y and z/5 have scales 3 and 5, both rescaled
    # to 15, and the rows equal the base-valued rows times 15.
    xyz = [Generator(n, 2) for n in "xyz"]
    zp = GradedRing(BaseRing.integers_localized(2), xyz, degree_window=8)
    x, y, z = (zp.var(n) for n in "xyz")
    rel = GradedRing(BaseRing.integers(), xyz, degree_window=8, relations=[x * y - z * z])
    cases = [
        (zp, [x * Fraction(1, 3) + y, z * Fraction(1, 5)], 15),
        (zp, [x, zp.zero(), 3 * y], 1),
        (rel, [rel.var("y") * 2, rel.var("x") * rel.var("x")], 1),
    ]
    for ring, gens, scale in cases:
        polys = tuple(gens) + ring.relations
        for d in ring.even_degrees():
            ctx = IdealContext(ring, gens, d)
            columns = ctx.columns
            assert "rows" not in ctx.__dict__
            assert ctx.scale == scale
            blocks = [
                ring_module._row_block(ring, tuple(g.terms.items()), d) for g in polys if g
            ]
            want = [
                {j: scale // s * v for j, v in row.items()} for rows, _, s in blocks for row in rows
            ]
            ref = [row for tag, row in ref_slice_rows(ring, gens, d) if tag[0] != "modulus"]
            assert ctx.rows == want
            assert ctx.rows == [{j: scale * v for j, v in enumerate(row) if v} for row in ref]
            assert columns is None or columns == {j for row in ctx.rows for j in row}
            assert ctx.rows is ctx.rows
    assert [ring_module.cleared_coefficients([g])[1] for g in cases[0][1]] == [3, 5]


def test_context_blocks_are_built_on_first_read_and_equal_an_eager_build():
    # A context takes its scale from each polynomial's cached facts and
    # builds its blocks only when rows, tags, columns or a lattice read
    # them, and columns only for a slice of unit monomials; over Z_(p) the
    # residue lattice builds the blocks it keeps without them.  Whatever is read first, rows, tags, columns and scale
    # equal those of a context whose blocks were built before anything.
    xyz = [Generator(n, 2) for n in "xyz"]
    zp = GradedRing(BaseRing.integers_localized(5), xyz, degree_window=8)
    x, y, z = (zp.var(n) for n in "xyz")
    f3 = GradedRing(BaseRing.prime_field(3), xyz, degree_window=8)
    rel = GradedRing(f3.base, xyz, degree_window=8, relations=[f3.parse("x*y - z^2")])
    cases = [
        (zp, [zp.constant(5), x, y + x]),
        (zp, [x * Fraction(1, 3) + y, z * Fraction(1, 7)]),
        (zp, [x, zp.zero(), 3 * y]),
        (rel, [rel.parse("2*y"), rel.parse("x^2")]),
    ]
    reads = ("scale", "residue_lattice", "columns", "tags", "rows", "lattice")
    for ring, gens in cases:
        for d in ring.even_degrees():
            eager = IdealContext(ring, gens, d)
            assert eager._blocks is eager._blocks
            want = (eager.rows, eager.tags, eager.columns, eager.scale)
            for first in reads:
                ctx = IdealContext(ring, gens, d)
                assert "_blocks" not in ctx.__dict__
                getattr(ctx, first)
                unread = first == "scale" or (first, ring) == ("residue_lattice", zp) or (
                    first == "columns" and want[2] is None
                )
                assert ("_blocks" in ctx.__dict__) != unread, (ring, d, first)
                assert (ctx.rows, ctx.tags, ctx.columns, ctx.scale) == want


def test_degree_and_ordered_terms_are_computed_once(monkeypatch):
    # Terms never change after construction, so an element's degree is
    # computed once and ordered_terms() is one tuple, its terms in order.
    # A mixed element has no degree to keep: it raises on every call.
    R = poly_f2_xy()
    x, y = R.var("x"), R.var("y")
    calls = []
    degree_of = R.monomial_degree
    monkeypatch.setattr(R, "monomial_degree", lambda e: calls.append(e) or degree_of(e))
    g = x * y + x * x
    assert g.ordered_terms() is g.ordered_terms() == tuple(g.terms.items())
    calls.clear()
    assert g.degree() == g.degree() == 4 and len(calls) == 2
    assert R.zero().degree() is None and R.zero().ordered_terms() == ()
    mixed = x + x * y
    for _ in range(2):
        with pytest.raises(NonHomogeneous):
            mixed.degree()


# -- normal forms by structure against the slice lattice ---------------


def lattice_terms(element, gens):
    """The terms of ``element``'s residue on the lattice of its degree's
    slice, in the slice's order, each coefficient normalized."""
    ring = element.ring
    ctx = ideal_context(ring, gens, element.degree())
    N, D = ctx.lattice.reduce(ctx.vector(element))
    normalize = ring.base.normalize
    return [(ctx.exps[j], normalize(N[j] if D == 1 else Fraction(N[j], D))) for j in sorted(N)]


def split_spy(monkeypatch):
    """Record, for each ``split_ideal`` call, whether it read the ideal."""
    read, split = [], ring_module.split_ideal

    def spy(ring, gens):
        out = split(ring, gens)
        read.append(out is not None)
        return out

    monkeypatch.setattr(ring_module, "split_ideal", spy)
    return read


def test_normal_form_by_structure_matches_slice_lattice(monkeypatch):
    """Seeded ideals of constants and generator multiples, over Z, Z_(3),
    F_3, Z/4 and Z/6 in a ring with a degree-zero and a Laurent generator:
    ``normal_form`` gives the slice lattice's residue, term for term, in
    the slice's order and with the base ring's coefficient type, whether
    ``split_ideal`` reads the ideal or the slice is built."""
    gens = [Generator("x", 2), Generator("y", 4), Generator("t", 0),
            Generator("v", 2, invertible=True)]
    cases = [
        (BaseRing.integers(), [1, -1, 2, 3, -3, 4, 6, 9, 12]),
        (BaseRing.integers_localized(3),
         [1, -1, 2, 3, 6, 9, Fraction(3, 2), Fraction(9, 4), Fraction(-5, 7)]),
        (BaseRing.prime_field(3), [1, 2, 3, 4]),
        (BaseRing.integers_mod(4), [1, 2, 3, 6]),
        (BaseRing.integers_mod(6), [1, 2, 3, 4, 5, 9]),
    ]
    split = ring_module.split_ideal
    read = split_spy(monkeypatch)
    rng = Random(32)
    checked = on_killed = 0
    for base, scalars in cases:
        R = GradedRing(base, gens, degree_window=6, laurent_window=1)
        x, y, t, v = (R.var(n) for n in "xytv")
        for _ in range(40):
            ideal = [R.constant(rng.choice(scalars)) for _ in range(rng.choice([0, 1, 1, 1, 2]))]
            # mostly unit multiples of the non-invertible generators
            ideal += [
                (rng.choice(scalars) if rng.random() < 0.2 else -1) * g
                for g in rng.sample([x, y, t] if rng.random() < 0.8 else [x, y, t, v], rng.randint(0, 3))
            ]
            if rng.random() < 0.15:
                ideal.append(x * x + y)
            rng.shuffle(ideal)
            d = rng.choice(list(R.even_degrees()))
            exps = list(R.degree_exps(d))
            terms = {m: rng.choice(scalars) for m in rng.sample(exps, min(len(exps), 6))}
            element = R.element(terms)
            if element.is_zero():
                continue
            got = list(normal_form(element, ideal).terms.items())
            want = [(m, c) for m, c in lattice_terms(element, ideal) if c]
            assert got == want, (base, ideal, element)
            assert [type(c) for _, c in got] == [type(c) for _, c in want]
            checked += 1
            killed = (split(R, tuple(ideal)) or (0, ()))[1]
            on_killed += any(m[i] for m in element.terms for i in killed)
    assert checked > 150 and on_killed > 60, (checked, on_killed)
    assert read.count(True) > 100 and read.count(False) > 50, (read.count(True), read.count(False))


def test_normal_form_errors_match_on_both_paths(monkeypatch):
    """A term past the Laurent window and an element of degree past the
    degree window raise the same error whether ``split_ideal`` reads the
    ideal (3, x) or the slice of (3, 6, x), which it does not read, is
    built."""
    R = GradedRing(
        BaseRing.integers_localized(3),
        [Generator("x", 2), Generator("v", 2, invertible=True)],
        degree_window=4, laurent_window=1,
    )
    x = R.var("x")
    past_laurent = RingElement(R, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    past_window = RingElement(R, {(3, 0): Fraction(1)})
    read = split_spy(monkeypatch)
    for element, error in ((past_laurent, SemanticError), (past_window, WindowOverflow)):
        raised = []
        for ideal in ((R.constant(3), x), (R.constant(3), R.constant(6), x)):
            with pytest.raises(error) as info:
                normal_form(element, ideal)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1], raised
    assert read == [True, False, True, False]


def test_bundled_scenarios_build_no_ideal_context(monkeypatch):
    """The K(n) sequence p, v1, ..., v_{n-1} is a constant and generators,
    so ``scenario`` and ``multiply`` jobs at K(2) and K(3) for p = 2 build
    no slice; a twisted sequence, which ``split_ideal`` does not read,
    still builds some."""
    built = []
    construct = ring_module.IdealContext

    def counting(*args):
        built.append(args)
        return construct(*args)

    monkeypatch.setattr(ring_module, "IdealContext", counting)
    ring_module._cached_context.cache_clear()
    _regularity.cache_clear()
    for n in (2, 3):
        for doc in (
            {"command": "scenario", "scenario": {"p": 2, "n": n}},
            {"command": "multiply", "scenario": {"p": 2, "n": n}, "factors": ["a0", "a1"]},
        ):
            assert run_job(parse_job(json.dumps(doc))).status == 0
            assert built == [], doc
    xyz = {"base": "Z_(2)", "generators": [{"name": n, "degree": 2} for n in "xyz"]}
    twisted = {"command": "check-regular", "ring": xyz, "window": {"degree": 8},
               "sequence": ["2", "x", "y + x", "z"]}
    assert run_job(parse_job(json.dumps(twisted))).status == 0
    assert built
    ring_module._cached_context.cache_clear()


# -- trusted arithmetic against a validating constructor ---------------


def ref_element(ring, terms):
    """The element a constructor that trusts nothing builds from raw
    ``terms``: each coefficient normalized, zero ones dropped and every
    other monomial checked against the window."""
    base = ring.base
    clean = {}
    for exps, c in terms.items():
        c = base.normalize(c)
        if c != 0:
            ring.check_exps(tuple(exps))
            clean[tuple(exps)] = c
    return RingElement(ring, clean)


def outcome(fn):
    """``fn()``, or the class of the window error it raises."""
    try:
        return fn()
    except WindowOverflow:
        return WindowOverflow


def test_trusted_arithmetic_matches_validating_constructor():
    """Sums, differences, products and normal forms of seeded elements
    over Z, F_3, Z/4 and Z_(2) equal what a validating constructor makes of
    their raw terms, and hold only canonical nonzero coefficients.  The
    ring has a degree-zero and an invertible generator in a small window,
    so some products leave it and must raise ``WindowOverflow``."""
    gens = [Generator("x", 2), Generator("t", 0), Generator("v", 2, invertible=True)]
    third = Fraction(1, 3)
    cases = [
        (BaseRing.integers(), [1, -1, 2, 3, -6]),
        (BaseRing.prime_field(3), [1, 2, 4, -5]),
        (BaseRing.integers_mod(4), [1, 2, 3, 6, -1]),
        (BaseRing.integers_localized(2), [1, 2, third, Fraction(-4, 5), Fraction(6, 7)]),
    ]
    overflows = reduced = 0
    for base, coeffs in cases:
        R = GradedRing(base, gens, degree_window=4, laurent_window=1)
        rng = Random("trusted:%r" % (base,))

        def rand_elem(d):
            exps = R.degree_exps(d)
            picked = rng.sample(exps, min(len(exps), rng.randint(1, 4)))
            return R.element({e: rng.choice(coeffs) for e in picked})

        def canonical(e):
            assert all(c != 0 and base.normalize(c) == c for c in e.terms.values())
            assert all(type(base.normalize(c)) is type(c) for c in e.terms.values())
            return e

        ideal = [rand_elem(2), rand_elem(0) * 2]
        for _ in range(40):
            a, b = rand_elem(rng.choice([-2, 0, 2])), rand_elem(rng.choice([0, 2, 4]))
            keys = set(a.terms) | set(b.terms)
            total = {e: a.coefficient(e) + b.coefficient(e) for e in keys}
            diff = {e: a.coefficient(e) - b.coefficient(e) for e in keys}
            raw = {}
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = tuple(i + j for i, j in zip(e1, e2))
                    raw[e] = raw.get(e, 0) + c1 * c2
            assert canonical(a + b) == ref_element(R, total)
            assert canonical(a - b) == ref_element(R, diff)
            assert canonical(-a) == ref_element(R, {e: -c for e, c in a.terms.items()})
            assert canonical(3 * a) == ref_element(R, {e: 3 * c for e, c in a.terms.items()})
            got = outcome(lambda: a * b)
            assert got == outcome(lambda: ref_element(R, raw))
            if got is WindowOverflow:
                overflows += 1
                continue
            canonical(got)
            for comp in (a, b, got):
                if comp.is_zero():
                    continue
                d = comp.degree()
                ctx = ideal_context(R, ideal, d)
                red = over(ctx.lattice.reduce(ctx.vector(comp)), ctx.width)
                nf = canonical(normal_form(comp, ideal))
                assert nf == ref_element(R, dict(zip(ctx.exps, red)))
                reduced += nf != comp
    assert overflows and reduced


def test_ring_exits_keep_the_base_coefficient_type():
    """The lattices answer in integers over one unit, and ``normal_form``
    and ``IdealContext.solve_vector`` are the two places that divide.  Over
    Z, F_3, Z/4 and Z_(2), seeded elements go through both: every
    coefficient is nonzero where ``normal_form`` stores it, canonical, and
    of its base ring's type, ``Fraction`` over Z_(2) and ``int`` elsewhere,
    and the pairs of ``solve_vector`` write the element back on the ideal's
    generators and relations."""
    gens = [Generator("x", 2), Generator("y", 2)]
    z2 = BaseRing.integers_localized(2)
    cases = [
        (BaseRing.integers(), [1, -1, 2, 3, -6]),
        (BaseRing.prime_field(3), [1, 2, 4, -5]),
        (BaseRing.integers_mod(4), [1, 2, 3, 6, -1]),
        (z2, [1, 2, 6, Fraction(1, 3), Fraction(-4, 5), Fraction(6, 7)]),
    ]
    units = solved = 0
    for base, coeffs in cases:
        kind = Fraction if base == z2 else int
        R = GradedRing(base, gens, degree_window=8)
        x, y = R.var("x"), R.var("y")
        rng = Random("exits:%r" % (base,))

        def rand_elem(d):
            exps = R.degree_exps(d)
            picked = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
            return R.element({e: rng.choice(coeffs) for e in picked})

        for _ in range(12):
            ideal = [rng.choice(coeffs) * x + rng.choice(coeffs) * y, rng.choice(coeffs) * y]
            for d in (2, 4, 6):
                elem = rand_elem(d)
                nf = normal_form(elem, ideal)
                for c in nf.terms.values():
                    assert type(c) is kind and c and base.normalize(c) == c
                ctx = ideal_context(R, ideal, d)
                member = rand_elem(d - 2) * ideal[0] + rand_elem(d - 2) * ideal[1]
                for vec, inside in ((member, True), (elem - nf, True), (elem, None)):
                    pairs = ctx.solve_vector(ctx.vector(vec))
                    if pairs is None:
                        assert inside is None and not normal_form(vec, ideal).is_zero()
                        continue
                    back = R.zero()
                    for (tag, gi, m), c in pairs:
                        assert type(c) is kind and c and base.normalize(c) == c
                        units += kind is Fraction and Fraction(c).denominator != 1
                        assert tag == "gen"
                        back = back + R.element({m: c}) * ideal[gi]
                    assert back == vec
                    solved += not vec.is_zero()
    assert units >= 100 and solved >= 300, (units, solved)


def test_element_rejects_outside_input():
    """``GradedRing.element`` is where terms enter: it refuses monomials
    outside the window and coefficients outside the base."""
    gens = [Generator("x", 2), Generator("t", 0), Generator("v", 2, invertible=True)]
    R = GradedRing(BaseRing.integers_localized(2), gens, degree_window=4, laurent_window=1)
    for exps in [(3, 0, 0), (0, 5, 0), (0, 0, 2), (0, 0, -2)]:
        with pytest.raises(WindowOverflow):
            R.element({exps: 1})
    with pytest.raises(SemanticError):
        R.element({(-1, 0, 1): 1})
    with pytest.raises(SemanticError):
        R.element({(1, 0, 0): Fraction(1, 2)})
    with pytest.raises(SemanticError):
        R.monomial([0, 0, 1], Fraction(3, 4))
    assert R.element({(1, 0, 0): Fraction(3, 1), (0, 0, 1): 0}).terms == {(1, 0, 0): 3}
