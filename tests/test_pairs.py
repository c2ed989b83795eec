import json
from random import Random

import pytest

from regquot.cli import run_job
from regquot.clifford import (
    AlgebraMap,
    CliffordAlgebra,
    augmentation,
    homology_presentation,
)
from regquot.conormal import ProductToken, QuotientRingSpec, opposite
from regquot.errors import NotCompatible, NotUnital, NotWellDefined
from regquot.jobio import parse_job
from regquot.pairs import (
    AdmissiblePair,
    PairMorphism,
    make_pair,
    mixed_pair_presentation,
    naturality_suite,
)
from regquot.ring import GradedRing, Generator, QuotientRing
from regquot.scalars import BaseRing


@pytest.fixture
def z_ring():
    return GradedRing(BaseRing.integers(), [], degree_window=4)


@pytest.fixture
def k1_spec():
    ring = GradedRing(
        BaseRing.integers_localized(2),
        [Generator("v1", 2, invertible=True)],
        degree_window=6,
    )
    two = ring.constant(2)
    return QuotientRingSpec(ring, [two], [ProductToken(two, ring.var("v1"))])


@pytest.fixture
def f2_xy():
    return GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )


def test_make_pair_canonical(z_ring):
    big = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    small = QuotientRing(z_ring, (z_ring.constant(2),))
    pair = make_pair(big, small)
    assert pair.project(z_ring.constant(8)).is_zero()
    assert pair.project(z_ring.constant(3)) == z_ring.constant(1)
    assert not pair.multiplicative


def test_identity_pair_is_multiplicative(k1_spec):
    pair = make_pair(k1_spec, k1_spec, multiplicative=True)
    assert pair.multiplicative
    pres, cl = pair.homology_algebra()
    assert pres.kind == "clifford"


def test_pair_rejects_non_unital(z_ring):
    small = QuotientRingSpec(z_ring, [z_ring.constant(8)])
    big = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    with pytest.raises(NotUnital):
        make_pair(small, big)


def test_multiplicative_flag_refuted_on_conflicting_tokens(k1_spec):
    ring = k1_spec.ring
    two = ring.constant(2)
    commutative = QuotientRingSpec(ring, [two])
    # same entry, one side declares an obstruction and the other does not
    with pytest.raises(NotCompatible):
        make_pair(k1_spec, commutative, multiplicative=True)
    pair = make_pair(k1_spec, commutative)
    assert not pair.multiplicative


def test_morphism_example_all_squares(z_ring):
    k4 = QuotientRing(z_ring, (z_ring.constant(4),))
    p_big = make_pair(QuotientRingSpec(z_ring, [z_ring.constant(16)]), k4)
    p_small = make_pair(QuotientRingSpec(z_ring, [z_ring.constant(8)]), k4)
    m = PairMorphism(p_big, p_small)
    report = naturality_suite(m)
    assert report.all_pass
    assert [name for name, _, _ in report.checks] == [
        "induced-map-exists",
        "phi-square",
        "form-functoriality",
        "induced-map-multiplicative",
    ]


def test_identity_morphism_trivially_commutes(f2_xy):
    spec = QuotientRingSpec(f2_xy, [f2_xy.var("x"), f2_xy.var("y")])
    pair = make_pair(spec, spec)
    report = naturality_suite(PairMorphism(pair, pair))
    assert report.all_pass
    assert report.failing() == ()


def test_single_generator_refines_into_full_quotient(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    k = QuotientRing(f2_xy, (x, y))
    p_one = make_pair(QuotientRingSpec(f2_xy, [x]), k)
    p_two = make_pair(QuotientRingSpec(f2_xy, [x, y]), k)
    m = PairMorphism(p_one, p_two)
    report = naturality_suite(m)
    assert report.all_pass
    # the square pins the image of the single conormal class
    _, cl_one = homology_presentation(p_one.source, p_one.target)
    _, cl_two = homology_presentation(p_two.source, p_two.target)
    assert cl_two.phi(x) == cl_two.generator(0)


def test_morphism_requires_nested_ideals(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    k = QuotientRing(f2_xy, (x, y))
    p_two = make_pair(QuotientRingSpec(f2_xy, [x, y]), k)
    p_one = make_pair(QuotientRingSpec(f2_xy, [x]), k)
    with pytest.raises(NotWellDefined):
        PairMorphism(p_two, p_one)


def test_opposite_swaps_tokens(k1_spec):
    ring = k1_spec.ring
    v1 = ring.var("v1")
    op = opposite(k1_spec, [v1])
    assert op.products[0].obstruction == v1
    assert op.sequence == k1_spec.sequence


def test_opposite_of_commutative_is_itself(z_ring):
    spec = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    assert opposite(spec, [0]) == spec


def test_mixed_pair_presentation_is_exterior(k1_spec):
    own_pres, own_cl = homology_presentation(k1_spec)
    assert own_pres.kind == "clifford"
    mixed_pres, mixed_cl = mixed_pair_presentation(k1_spec)
    assert mixed_pres.kind == "exterior"
    assert mixed_pres.display == "Lambda(a0)"
    assert augmentation(mixed_cl.one()) == mixed_cl.coeff.one()


def test_pair_accepts_quotient_ring_target(z_ring):
    big = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    pair = AdmissiblePair(big, QuotientRing(z_ring, (z_ring.constant(4),)))
    assert pair.target.sequence == (z_ring.constant(4),)


def test_morphism_square_checked_over_the_whole_window():
    # PairMorphism refuses pairs whose ideals do not nest, so the failing
    # square is assembled directly: K = (x^5) is not inside L = (x^6), and
    # the square fails in degree 10 of a window-12 ring only.
    ring = GradedRing(BaseRing.prime_field(2), [Generator("x", 2)], degree_window=12)
    x = ring.var("x")
    morphism = object.__new__(PairMorphism)
    morphism.source = make_pair(
        QuotientRingSpec(ring, [x**5]), QuotientRing(ring, (x**5,))
    )
    morphism.target = make_pair(
        QuotientRingSpec(ring, [x**6]), QuotientRing(ring, (x**6,))
    )
    with pytest.raises(NotWellDefined, match="in degree 10$"):
        morphism._verify_square()


# -- multiplicativity by the Clifford relations ------------------------


def ref_induced_map_multiplicative(amap):
    """The ``induced-map-multiplicative`` check as ``naturality_suite`` ran
    it before the certificate: every pair of source basis words u, v, with
    apply(u) * apply(v) compared against apply(u * v)."""
    cl_f = amap.source
    words = cl_f.basis_words()
    bad_pairs = []
    for u in words:
        for v in words:
            eu = cl_f.element({u: cl_f.coeff.one()})
            ev = cl_f.element({v: cl_f.coeff.one()})
            if amap.apply(eu) * amap.apply(ev) != amap.apply(eu * ev):
                bad_pairs.append("%s,%s" % (u, v))
    return (
        "induced-map-multiplicative",
        not bad_pairs,
        "fails on: " + "; ".join(bad_pairs) if bad_pairs else "",
    )


def _seeded_morphisms():
    """Pair morphisms over Z, F_3, Z/4 and Z_(2) in R = base[x, y, v],
    |v| = 6.  Each entry of the source sequence F is an entry g of the
    target sequence G times 1, -1 or g, in a shuffled order; L holds G and
    K holds F, and at most one more generator joins both.  About half the
    draws twist: a unit-multiple entry and its g carry one obstruction, v
    for x and y and x or y for a constant, so the source form is nonzero
    unless L kills that obstruction."""
    out = []
    for base, consts in (
        (BaseRing.integers(), [2, 3]),
        (BaseRing.prime_field(3), []),
        (BaseRing.integers_mod(4), []),
        (BaseRing.integers_localized(2), [2]),
    ):
        ring = GradedRing(
            base, [Generator("x", 2), Generator("y", 2), Generator("v", 6)], degree_window=18
        )
        x, y, v = (ring.var(n) for n in "xyv")
        rng = Random("naturality:%r" % (base,))
        for _ in range(8):
            pool = [x, y] + [ring.constant(c) for c in rng.sample(consts, min(1, len(consts)))]
            gs = rng.sample(pool, rng.randint(1, len(pool)))
            twist = rng.random() < 0.5
            obs = {g: (v if g.degree() else rng.choice([x, y])) if twist else None for g in gs}
            entries = []
            for g in gs:
                u = rng.choice([1, -1, g])
                entries.append((g * u, obs[g] if u in (1, -1) else None))
            rng.shuffle(entries)
            extra = [e for e in (x, y) if e not in gs][:rng.randint(0, 1)]
            f = QuotientRingSpec(ring, [e for e, _ in entries],
                                 [ProductToken(e, o) for e, o in entries])
            g_spec = QuotientRingSpec(ring, gs, [ProductToken(g, obs[g]) for g in gs])
            k = QuotientRing(ring, tuple(f.sequence) + tuple(extra))
            l = QuotientRing(ring, tuple(gs) + tuple(extra))
            out.append(PairMorphism(make_pair(f, k), make_pair(g_spec, l)))
    return out


def test_multiplicativity_certificate_matches_word_pair_replay(z_ring, k1_spec):
    four = QuotientRing(z_ring, (z_ring.constant(4),))
    exa = PairMorphism(
        make_pair(QuotientRingSpec(z_ring, [z_ring.constant(16)]), four),
        make_pair(QuotientRingSpec(z_ring, [z_ring.constant(8)]), four),
    )
    k1 = make_pair(k1_spec, k1_spec.coefficients)
    bases, twisted = set(), 0
    for m in [exa, PairMorphism(k1, k1)] + _seeded_morphisms():
        report = naturality_suite(m)
        assert report.amap is not None, m
        assert report.checks[-1] == ref_induced_map_multiplicative(report.amap), m
        bases.add(m.source.source.ring.base)
        twisted += any(report.amap.source.q)
    amap = naturality_suite(exa).amap
    assert amap.images == (2 * amap.target.generator(0),)
    assert len(bases) == 4 and twisted >= 10, (bases, twisted)


def test_word_pair_replay_refutes_a_map_off_the_relations():
    # The oracle is not vacuous: a map that skips the constructor's relation
    # check and sends a0 to a0 + a1 in an algebra with a1^2 = 1 is not
    # multiplicative, and the replay says so.
    ext = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0, 1])
    amap = object.__new__(AlgebraMap)
    amap.source, amap.target = ext, ext
    amap.images = (ext.generator(0) + ext.generator(1), ext.generator(1))
    name, passed, detail = ref_induced_map_multiplicative(amap)
    assert not passed and detail.startswith("fails on: ")


@pytest.mark.parametrize("n", [5, 8])
def test_naturality_job_applies_the_map_to_phi_samples_only(monkeypatch, n):
    # The phi-square applies the map once per sequence entry and once per
    # sum of two entries; the word-pair replay, 3 * 4^n more, is gone.
    calls = []
    apply = AlgebraMap.apply

    def spy(self, elem):
        calls.append(elem)
        return apply(self, elem)

    monkeypatch.setattr(AlgebraMap, "apply", spy)
    names = ["x%d" % i for i in range(n)]
    doc = {
        "command": "naturality",
        "ring": {"base": "Z", "generators": [{"name": x, "degree": 2} for x in names]},
        "window": {"degree": 4},
        "source_pair": {"sequence": names, "target": names},
        "target_pair": {"sequence": names, "target": names},
    }
    report = run_job(parse_job(json.dumps(doc)))
    assert report.status == 0 and report.results["all_pass"]
    assert len(calls) == n + n * (n - 1) // 2
