"""Acceptance suite: nine criteria, exact arithmetic, zero tolerance.

Each test prints one PASS/FAIL line.  Run with `pytest -v -s` to see the
lines as they go; a plain `pytest` run still reports one outcome per
criterion through the test names.
"""
import random
import time

from regquot.clifford import (
    CliffordAlgebra,
    antipode,
    brute_force_presentation,
    homology_presentation,
    induced_algebra_map,
)
from regquot.conormal import (
    QuotientRingSpec,
    base_change_form,
    characteristic_form_diagonal,
    conormal_module,
    exterior_rank_profile,
)
from regquot.derivations import (
    bockstein,
    compose,
    duality_square_commutes,
    leibniz_check,
    theta_rank,
)
from regquot.ideals import (
    check_regular_sequence,
    decompose_conormal,
    tor,
    tor1_equals_intersection_over_product,
)
from regquot.morava import build_scenario
from regquot.ring import GradedRing, Generator, QuotientRing
from regquot.scalars import BaseRing


def report(number, ok, detail):
    print("criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_odd_p_exterior():
    details = []
    ok = True
    for p, n in [(3, 1), (3, 2), (5, 2)]:
        started = time.perf_counter()
        sc = build_scenario(p, n)
        pres, cl = homology_presentation(sc.spec)
        elapsed = time.perf_counter() - started
        names = ", ".join("a%d" % i for i in range(n))
        if pres.kind != "exterior" or pres.display != "Lambda(%s)" % names:
            ok = False
        for i in range(n):
            if pres.generators[i][1] != 2 * (p**i - 1) + 1:
                ok = False
            if not (cl.generator(i) * cl.generator(i)).is_zero():
                ok = False
        if elapsed >= 5.0:
            ok = False
        details.append("(%d,%d) %s in %.2fs" % (p, n, pres.display, elapsed))
    report(1, ok, "; ".join(details))


def test_criterion_2_p2_clifford():
    started = time.perf_counter()
    details = []
    ok = True
    for n in [1, 2, 3]:
        sc = build_scenario(2, n)
        pres, cl = homology_presentation(sc.spec)
        vn = cl.scalar(sc.ring.var("v%d" % n))
        if cl.generator(n - 1) * cl.generator(n - 1) != vn:
            ok = False
        for i in range(n - 1):
            if not (cl.generator(i) * cl.generator(i)).is_zero():
                ok = False
        tail = "T(a%d)/(a%d^2 - v%d*1)" % (n - 1, n - 1, n)
        if n == 1:
            expected = tail
        else:
            names = ", ".join("a%d" % i for i in range(n - 1))
            expected = "Lambda(%s) (x) %s" % (names, tail)
        if pres.display != expected:
            ok = False
        details.append("n=%d %s" % (n, pres.display))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        ok = False
    report(2, ok, "; ".join(details) + " in %.2fs" % elapsed)


def test_criterion_3_p2_form():
    ok = True
    details = []
    for n in [1, 2, 3]:
        sc = build_scenario(2, n)
        form = characteristic_form_diagonal(sc.spec)
        coeff = sc.spec.coefficients
        vn = coeff.nf(sc.ring.var("v%d" % n))
        for i in range(n):
            for j in range(n):
                want = vn if i == j == n - 1 else coeff.nf(sc.ring.zero())
                if form.entries[i][j] != want:
                    ok = False
        if not form.is_diagonal():
            ok = False
        details.append("n=%d entry (%d,%d) = v%d" % (n, n - 1, n - 1, n))
    report(3, ok, "; ".join(details))


def test_criterion_4_exa_induced_map():
    z = GradedRing(BaseRing.integers(), [], degree_window=4)
    spec_f = QuotientRingSpec(z, [z.constant(16)])
    spec_g = QuotientRingSpec(z, [z.constant(8)])
    ok = True
    k2 = QuotientRing(z, (z.constant(2),))
    _, cl_f2 = homology_presentation(spec_f, k2)
    _, cl_g2 = homology_presentation(spec_g, k2)
    image2 = induced_algebra_map(cl_f2, cl_g2).images[0]
    if not image2.is_zero():
        ok = False
    k4 = QuotientRing(z, (z.constant(4),))
    _, cl_f4 = homology_presentation(spec_f, k4)
    _, cl_g4 = homology_presentation(spec_g, k4)
    image4 = induced_algebra_map(cl_f4, cl_g4).images[0]
    if image4 != cl_g4.generator(0) * 2 or image4.is_zero():
        ok = False
    report(4, ok, "a -> 2*b; zero over Z/2, %r over Z/4" % image4)


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20260823)
    bases = [BaseRing.prime_field(2), BaseRing.prime_field(3), BaseRing.integers()]
    forms = 0
    pairs = 0
    ok = True
    for trial in range(20):
        base = bases[trial % 3]
        n = 1 + trial % 3
        diag = [rng.randrange(-4, 5) for _ in range(n)]
        matrix = [
            [diag[i] if i == j else 0 for j in range(n)] for i in range(n)
        ]
        cl = CliffordAlgebra.from_scalars(base, diag)
        _, model = brute_force_presentation(n, matrix, base=base)
        for w1 in cl.basis_words():
            for w2 in cl.basis_words():
                if cl.word_product(w1, w2) != model.product(w1, w2):
                    ok = False
                pairs += 1
        forms += 1
    report(5, ok, "%d forms, %d products checked" % (forms, pairs))


def test_criterion_6_derivation_suite():
    ok = True
    details = []
    for n in range(1, 5):
        cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0] * n)
        qs = [bockstein(cl, i) for i in range(n)]
        if not all(leibniz_check(q) for q in qs):
            ok = False
        for i in range(n):
            if not compose([qs[i], qs[i]]).is_zero():
                ok = False
            for j in range(i + 1, n):
                if compose([qs[i], qs[j]]) != compose([qs[j], qs[i]]).negated():
                    ok = False
        rank = theta_rank(cl)
        if rank != 2**n:
            ok = False
        if not duality_square_commutes(cl):
            ok = False
        details.append("n=%d rank %d" % (n, rank))
    report(6, ok, "; ".join(details))


def _fp_dim(entry, p):
    if entry.free_rank != 0 or any(f != p for f in entry.factors):
        return None
    return len(entry.factors)


def _tor_totals(ring, j_gens, k_gens, steps, p):
    totals = {}
    for i in range(steps + 1):
        rep = tor(ring, j_gens, k_gens, i)
        for d in rep.entries:
            dim = _fp_dim(rep.entry(d), p)
            if dim is None:
                return None
            if dim:
                totals[d + i] = totals.get(d + i, 0) + dim
    return totals


def _rank_oracle_agrees(ring, j_gens, k_gens, module, p):
    profile = exterior_rank_profile(module, p)
    totals = _tor_totals(ring, j_gens, k_gens, len(module.degrees), p)
    if totals is None:
        return False
    lo = min(ring.even_degrees())
    start = lo + sum(module.degrees) if lo < 0 else 0
    for t in range(start, ring.degree_window + 1):
        if profile.get(t, 0) != totals.get(t, 0):
            return False
    return True


def test_criterion_7_koszul_tor_suite():
    f2 = GradedRing(
        BaseRing.prime_field(2),
        [Generator("x", 2), Generator("y", 2)],
        degree_window=12,
    )
    x, y = f2.var("x"), f2.var("y")
    ok = check_regular_sequence(f2, [x, y]).regular
    if check_regular_sequence(f2, [x, x]).regular:
        ok = False
    rng = random.Random(20260823)
    monomials = [[x, y], [x * x, x * y, y * y]]
    tested = 0
    while tested < 10:
        f = sum(
            (m * rng.randrange(2) for m in rng.choice(monomials)), f2.zero()
        )
        g = sum(
            (m * rng.randrange(2) for m in rng.choice(monomials)), f2.zero()
        )
        if f.is_zero() or g.is_zero():
            continue
        if not tor1_equals_intersection_over_product(f2, [f], [g]):
            ok = False
        tested += 1
    sc1 = build_scenario(2, 1, window=8)
    seq1 = tuple(sc1.spec.sequence)
    if not _rank_oracle_agrees(sc1.ring, seq1, seq1, conormal_module(sc1.spec), 2):
        ok = False
    sc2 = build_scenario(2, 2)
    seq2 = tuple(sc2.spec.sequence)
    if not _rank_oracle_agrees(sc2.ring, seq2, seq2, conormal_module(sc2.spec), 2):
        ok = False
    z = GradedRing(BaseRing.integers(), [], degree_window=12)
    spec_f = QuotientRingSpec(z, [z.constant(16)])
    k = QuotientRing(z, (z.constant(2),))
    mod_k = base_change_form(characteristic_form_diagonal(spec_f), k).module
    if not _rank_oracle_agrees(z, (z.constant(2),), (z.constant(16),), mod_k, 2):
        ok = False
    report(
        7,
        ok,
        "regularity at D=12, %d tor1 pairs, rank oracle for K(1)/K(2)/Z16" % tested,
    )


def test_criterion_8_conormal_decomposition():
    f2 = GradedRing(
        BaseRing.prime_field(2),
        [Generator("x", 2), Generator("y", 2)],
        degree_window=12,
    )
    dec1 = decompose_conormal(f2, [[f2.var("x")], [f2.var("y")]])
    ok = dec1.verified
    if not all(entry.verified for entry in dec1.degrees.values()):
        ok = False
    deg2 = dec1.degrees[2]
    if list(deg2.module.factors) != [2, 2]:
        ok = False
    if [list(s.factors) for s in deg2.summands] != [[2], [2]]:
        ok = False
    zv = GradedRing(BaseRing.integers(), [Generator("v1", 0)], degree_window=12)
    v1 = zv.var("v1")
    dec2 = decompose_conormal(zv, [[zv.constant(2)], [v1 - 2]])
    if not dec2.verified:
        ok = False
    entry0 = dec2.degrees[0]
    if list(entry0.module.factors) != [2, 2]:
        ok = False
    if [list(s.factors) for s in entry0.summands] != [[2], [2]]:
        ok = False
    report(8, ok, "F2[x,y] ((x),(y)) and Z[v1] ((2),(v1-2)) split up to D=12")


def test_criterion_9_antipode_and_swap():
    rng = random.Random(20260823)
    bases = [BaseRing.integers(), BaseRing.prime_field(3)]
    ok = True
    instances = 0
    for base in bases:
        for n in range(0, 4):
            diag = [rng.randrange(-3, 4) for _ in range(n)]
            cl = CliffordAlgebra.from_scalars(base, diag)
            for w1 in cl.basis_words():
                for w2 in cl.basis_words():
                    u, v = cl.element({w1: 1}), cl.element({w2: 1})
                    if antipode(u * v) != antipode(u) * antipode(v):
                        ok = False
                    if antipode(antipode(u)) != u:
                        ok = False
            for i in range(n):
                if antipode(cl.generator(i)) != -cl.generator(i):
                    ok = False
            instances += 1
    report(9, ok, "%d instances: automorphism, involution" % instances)
