from fractions import Fraction

import pytest

from regquot.conormal import (
    BilinearFormData,
    ConormalModule,
    ProductToken,
    QuotientRingSpec,
    base_change_form,
    characteristic_form_diagonal,
    conormal_module,
    exterior_rank_profile,
    zero_form,
)
from regquot.errors import (
    DegreeMismatch,
    NotInIdeal,
    NotRegular,
    NotWellDefined,
    SemanticError,
)
from regquot.ring import GradedRing, Generator, QuotientRing
from regquot.scalars import BaseRing


@pytest.fixture
def z_ring():
    return GradedRing(BaseRing.integers(), [], degree_window=4)


@pytest.fixture
def k1_ring():
    return GradedRing(
        BaseRing.integers_localized(2),
        [Generator("v1", 2, invertible=True)],
        degree_window=6,
    )


@pytest.fixture
def f2_xy():
    return GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )


def test_spec_and_module_rank_one(z_ring):
    spec = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    assert spec.is_regular
    mod = conormal_module(spec)
    assert mod.rank == 1
    assert mod.degrees == (1,)
    assert mod.coefficients.entry(0) == (0, (16,))


def test_empty_sequence_gives_rank_zero(z_ring):
    spec = QuotientRingSpec(z_ring, [])
    mod = conormal_module(spec)
    assert mod.rank == 0
    assert mod.degrees == ()


def test_conormal_requires_regularity(f2_xy):
    x = f2_xy.var("x")
    spec = QuotientRingSpec(f2_xy, [x, x])
    assert not spec.is_regular
    with pytest.raises(NotRegular):
        conormal_module(spec)
    assert conormal_module(spec, allow_unverified=True).rank == 2


def test_residue_coordinates_integer(z_ring):
    spec = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    mod = conormal_module(spec)
    coords = mod.residue_coordinates(z_ring.constant(32))
    assert coords == (z_ring.constant(2),)
    with pytest.raises(NotInIdeal):
        mod.residue_coordinates(z_ring.constant(1))


def test_residue_coordinates_kill_ideal_square(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    spec = QuotientRingSpec(f2_xy, [x, y])
    mod = conormal_module(spec)
    assert mod.residue_coordinates(x) == (f2_xy.one(), f2_xy.zero())
    assert mod.residue_coordinates(x + x * y) == mod.residue_coordinates(x)


def test_residue_coordinates_unit_multiple(k1_ring):
    two = k1_ring.constant(2)
    v1 = k1_ring.var("v1")
    spec = QuotientRingSpec(k1_ring, [two])
    mod = conormal_module(spec)
    coords = mod.residue_coordinates(two + two * v1)
    assert coords == (k1_ring.one() + v1,)


def test_residue_coordinates_with_unit_denominators():
    # The slice rows of (x/3, 5y/7) are stored over the common multiple 21;
    # the coordinates must come back on the entries themselves.
    ring = GradedRing(
        BaseRing.integers_localized(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )
    x, y = ring.var("x"), ring.var("y")
    spec = QuotientRingSpec(ring, [x * Fraction(1, 3), y * Fraction(5, 7)])
    mod = ConormalModule(spec)
    assert mod.residue_coordinates(x) == (ring.constant(3), ring.zero())
    assert mod.residue_coordinates(x + 5 * y) == (ring.constant(3), ring.constant(7))


def test_token_flags_and_degrees(k1_ring):
    two = k1_ring.constant(2)
    v1 = k1_ring.var("v1")
    tok = ProductToken(two, v1)
    assert not tok.commutative
    # representative in (2): reduces to zero, so the product is commutative
    assert ProductToken(two, 2 * v1).commutative
    assert ProductToken(two).commutative
    with pytest.raises(DegreeMismatch):
        ProductToken(two, v1 * v1)


def test_characteristic_form_k1_at_two(k1_ring):
    two = k1_ring.constant(2)
    v1 = k1_ring.var("v1")
    spec = QuotientRingSpec(k1_ring, [two], [ProductToken(two, v1)])
    form = characteristic_form_diagonal(spec)
    assert form.is_diagonal()
    assert form.entry(0, 0) == v1
    assert form.quadratic(0) == v1


def test_commutative_tokens_give_zero_form(z_ring):
    spec = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    form = characteristic_form_diagonal(spec)
    assert form.is_zero()


def test_form_entry_degree_validation(k1_ring):
    two = k1_ring.constant(2)
    v1 = k1_ring.var("v1")
    spec = QuotientRingSpec(k1_ring, [two])
    mod = conormal_module(spec)
    with pytest.raises(DegreeMismatch):
        BilinearFormData(mod, [[v1 * v1]])
    form = BilinearFormData(mod, [[v1]])
    assert form.entry(0, 0) == v1
    # polarization doubles the entry, which dies mod 2
    assert form.polarized(0, 0) == 0


def test_base_change_form(z_ring, k1_ring):
    spec = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    form = characteristic_form_diagonal(spec)
    pushed = base_change_form(form, QuotientRing(z_ring, (z_ring.constant(2),)))
    assert pushed.is_zero()
    assert pushed.module.coefficients.entry(0) == (0, (2,))
    with pytest.raises(NotWellDefined):
        base_change_form(form, QuotientRing(z_ring, (z_ring.constant(3),)))
    two = k1_ring.constant(2)
    v1 = k1_ring.var("v1")
    kspec = QuotientRingSpec(k1_ring, [two], [ProductToken(two, v1)])
    kform = characteristic_form_diagonal(kspec)
    same = base_change_form(kform, kspec)
    assert same.entry(0, 0) == kform.entry(0, 0)


def test_zero_form_constructor(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    spec = QuotientRingSpec(f2_xy, [x, y])
    assert zero_form(conormal_module(spec)).is_zero()


def test_spec_token_validation(z_ring):
    sixteen = z_ring.constant(16)
    with pytest.raises(SemanticError):
        QuotientRingSpec(z_ring, [sixteen], [])
    with pytest.raises(SemanticError):
        QuotientRingSpec(z_ring, [sixteen], [ProductToken(z_ring.constant(8))])


def test_exterior_rank_profile(k1_ring):
    two = k1_ring.constant(2)
    spec = QuotientRingSpec(k1_ring, [two])
    mod = conormal_module(spec)
    profile = exterior_rank_profile(mod, 2)
    assert profile[0] == 1
    assert profile[1] == 1
    assert profile[2] == 1
    assert profile[3] == 1
