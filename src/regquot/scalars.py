"""Coefficient arithmetic for the four supported base rings.

Coefficients are plain Python values: ``int`` for the integers, for prime
fields and for modular integers (stored as canonical residues), and
``fractions.Fraction`` with denominator coprime to p for the p-local
integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import SemanticError

INTEGERS = "integers"
PRIME_FIELD = "prime_field"
INTEGERS_MOD = "integers_mod"
INTEGERS_LOCALIZED = "integers_localized"

_KINDS = (INTEGERS, PRIME_FIELD, INTEGERS_MOD, INTEGERS_LOCALIZED)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class BaseRing:
    """One of Z, F_p, Z/m or Z localized at a prime p."""

    __slots__ = ("kind", "p", "modulus")

    def __init__(self, kind: str, p: int | None = None, modulus: int | None = None):
        if kind not in _KINDS:
            raise SemanticError("unknown base ring kind %r" % (kind,))
        if kind in (PRIME_FIELD, INTEGERS_LOCALIZED):
            if p is None or not is_prime(p):
                raise SemanticError("%s needs a prime p, got %r" % (kind, p))
        if kind == INTEGERS_MOD:
            if modulus is None or modulus < 2:
                raise SemanticError("integers_mod needs a modulus >= 2, got %r" % (modulus,))
        self.kind = kind
        self.p = p
        self.modulus = modulus

    # -- constructors -------------------------------------------------

    @classmethod
    def integers(cls) -> "BaseRing":
        return cls(INTEGERS)

    @classmethod
    def prime_field(cls, p: int) -> "BaseRing":
        return cls(PRIME_FIELD, p=p)

    @classmethod
    def integers_mod(cls, m: int) -> "BaseRing":
        return cls(INTEGERS_MOD, modulus=m)

    @classmethod
    def integers_localized(cls, p: int) -> "BaseRing":
        return cls(INTEGERS_LOCALIZED, p=p)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, BaseRing)
            and self.kind == other.kind
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.modulus))

    def __repr__(self):
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == PRIME_FIELD:
            return "F_%d" % self.p
        if self.kind == INTEGERS_MOD:
            return "Z/%d" % self.modulus
        return "Z_(%d)" % self.p

    # -- structure ----------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind == PRIME_FIELD

    @property
    def is_domain(self) -> bool:
        return self.kind != INTEGERS_MOD or is_prime(self.modulus)

    def residue_is_domain(self, c) -> bool:
        """Whether this ring modulo ``c`` is a domain: for c = 0 whether the
        ring is one, over Z_(p) whether v_p(c) = 1, and over Z, F_p and Z/m
        whether gcd(c, characteristic) is prime (never for a unit c)."""
        c = self.normalize(c)
        if not c:
            return self.is_domain
        if self.kind == INTEGERS_LOCALIZED:
            return c.numerator % self.p == 0 and c.numerator % self.p**2 != 0
        return is_prime(gcd(c, self.characteristic))

    def divides(self, c, a) -> bool:
        """Whether ``a`` lies in the ideal (c): whether it is zero mod ``c``."""
        c, a = self.normalize(c), self.normalize(a)
        if self.kind == INTEGERS_LOCALIZED:
            return (a / c).denominator % self.p != 0 if c else not a
        g = gcd(c, self.characteristic)
        return a % g == 0 if g else not a

    @property
    def characteristic(self) -> int:
        """p for F_p, m for Z/m, and 0 for Z and Z_(p)."""
        if self.kind == PRIME_FIELD:
            return self.p
        if self.kind == INTEGERS_MOD:
            return self.modulus
        return 0

    # -- arithmetic ---------------------------------------------------

    def normalize(self, a):
        """Canonical representative of ``a`` in this ring."""
        if self.kind == INTEGERS:
            if isinstance(a, Fraction):
                if a.denominator != 1:
                    raise SemanticError("%s is not an integer" % (a,))
                return int(a)
            return int(a)
        if self.kind == PRIME_FIELD:
            return int(a) % self.p
        if self.kind == INTEGERS_MOD:
            return int(a) % self.modulus
        a = Fraction(a)
        if a.denominator % self.p == 0:
            raise SemanticError(
                "denominator of %s is divisible by %d, not %d-local" % (a, self.p, self.p)
            )
        return a

    def coerce(self, v):
        """``v`` as a coefficient: an ``int`` or ``Fraction`` normalized."""
        if isinstance(v, (int, Fraction)):
            return self.normalize(v)
        raise SemanticError("scalar coefficient expected")

    def zero(self):
        return Fraction(0) if self.kind == INTEGERS_LOCALIZED else 0

    def one(self):
        return Fraction(1) if self.kind == INTEGERS_LOCALIZED else 1

    def add(self, a, b):
        return self.normalize(a + b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a) -> bool:
        return self.normalize(a) == 0

    def is_unit(self, a) -> bool:
        a = self.normalize(a)
        if self.kind == INTEGERS:
            return a in (1, -1)
        if self.kind == PRIME_FIELD:
            return a != 0
        if self.kind == INTEGERS_MOD:
            return gcd(a, self.modulus) == 1
        return a != 0 and a.numerator % self.p != 0

    def render(self, a) -> str:
        a = self.normalize(a)
        if isinstance(a, Fraction) and a.denominator == 1:
            return str(a.numerator)
        return str(a)

    def degree_of(self, a) -> None:
        """Base coefficients carry no grading."""
        return None
