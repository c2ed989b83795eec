import pytest

from regquot.clifford import augmentation, homology_presentation
from regquot.conormal import ProductToken, QuotientRingSpec
from regquot.errors import NotCompatible, NotUnital, NotWellDefined
from regquot.pairs import (
    AdmissiblePair,
    PairMorphism,
    make_pair,
    mixed_pair_presentation,
    naturality_suite,
    opposite,
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
