"""Base ring coefficient arithmetic."""
from fractions import Fraction

import pytest

from regquot.errors import SemanticError
from regquot.scalars import BaseRing, is_prime


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_integers_normalize():
    z = BaseRing.integers()
    assert z.normalize(-3) == -3
    assert z.normalize(Fraction(4, 2)) == 2
    with pytest.raises(SemanticError):
        z.normalize(Fraction(1, 2))
    assert z.is_unit(-1)
    assert not z.is_unit(2)
    assert z.is_domain and not z.is_field
    assert z.characteristic == 0


def test_prime_field():
    f5 = BaseRing.prime_field(5)
    assert f5.normalize(-1) == 4
    assert f5.add(3, 4) == 2
    assert f5.mul(2, 3) == 1
    assert f5.is_unit(4) and not f5.is_unit(0)
    assert f5.is_field and f5.characteristic == 5
    with pytest.raises(SemanticError):
        BaseRing.prime_field(6)


def test_integers_mod():
    z8 = BaseRing.integers_mod(8)
    assert z8.normalize(9) == 1
    assert z8.mul(2, 4) == 0
    assert z8.is_unit(3) and not z8.is_unit(2)
    assert not z8.is_domain and z8.characteristic == 8
    assert BaseRing.integers_mod(7).is_domain
    with pytest.raises(SemanticError):
        BaseRing.integers_mod(1)


def test_integers_localized():
    z2 = BaseRing.integers_localized(2)
    assert z2.normalize(Fraction(2, 3)) == Fraction(2, 3)
    assert z2.is_unit(Fraction(3, 5))
    assert not z2.is_unit(2)
    assert z2.is_domain and z2.characteristic == 0
    with pytest.raises(SemanticError):
        z2.normalize(Fraction(1, 2))
    assert z2.render(Fraction(3, 1)) == "3"
    assert z2.render(Fraction(2, 3)) == "2/3"


def test_equality_and_hash():
    assert BaseRing.prime_field(3) == BaseRing.prime_field(3)
    assert BaseRing.prime_field(3) != BaseRing.prime_field(5)
    assert BaseRing.integers() != BaseRing.integers_mod(4)
    assert hash(BaseRing.integers_localized(7)) == hash(BaseRing.integers_localized(7))


@pytest.mark.parametrize("base, domains, others", [
    (BaseRing.integers(), [0, 5, -7], [1, -1, 6, 9]),
    (BaseRing.integers_localized(3), [0, 3, -6, Fraction(3, 5)], [1, 2, 9, Fraction(18, 5)]),
    (BaseRing.prime_field(3), [0], [1, 2]),
    (BaseRing.integers_mod(4), [2, 6], [0, 1, 3]),
    (BaseRing.integers_mod(5), [0], [1, 3]),
])
def test_residue_is_domain(base, domains, others):
    # base/c: F_|c| over Z, F_p over Z_(p) for v_p(c) = 1, and Z/gcd(c, m)
    # over Z/m; zero for a unit c, and the base itself for c = 0
    assert all(base.residue_is_domain(c) for c in domains)
    assert not any(base.residue_is_domain(c) for c in others)


@pytest.mark.parametrize("base, c, inside, outside", [
    (BaseRing.integers(), 3, [0, 3, -6], [1, 4]),
    (BaseRing.integers(), 0, [0], [1, -2]),
    (BaseRing.integers_localized(3), 3, [0, Fraction(6, 5), 9], [1, Fraction(2, 5)]),
    (BaseRing.integers_localized(3), 9, [Fraction(18, 7)], [3, 6]),
    (BaseRing.integers_localized(3), 0, [0], [3]),
    (BaseRing.prime_field(3), 0, [0, 3], [1, 2]),
    (BaseRing.prime_field(3), 2, [0, 1, 2], []),
    (BaseRing.integers_mod(4), 2, [0, 2, 6], [1, 3]),
    (BaseRing.integers_mod(4), 0, [0, 4], [2]),
])
def test_divides(base, c, inside, outside):
    assert all(base.divides(c, a) for a in inside)
    assert not any(base.divides(c, a) for a in outside)
