"""Named coefficient scenarios: local Laurent rings with their quotient data.

A scenario at a prime p and height n carries the ring
Z_(p)[v1, ..., v_{n-1}, vn^{±1}] with |v_i| = 2(p^i - 1) and the quotient
sequence (p, v1, ..., v_{n-1}).  At odd primes every product token is
commutative; at p = 2 the last entry carries the obstruction vn and the
earlier ones vanish in the quotient coefficients.

This module only builds the scenario.  Its homology, cohomology and
form are the library's own calls on ``spec``: ``homology_presentation``,
``cohomology_presentation`` and ``characteristic_form_diagonal``, as
the ``scenario`` command runs them.
"""
from __future__ import annotations

from typing import NamedTuple

from .conormal import ProductToken, QuotientRingSpec
from .errors import SemanticError, WindowTooSmall
from .ring import GradedRing, Generator
from .scalars import BaseRing, is_prime


class MoravaScenario(NamedTuple):
    p: int
    n: int
    ring: GradedRing
    spec: QuotientRingSpec
    window: int
    laurent: int


def minimum_window(p: int, n: int) -> int:
    # must hold the top obstruction degree 2|v_{n-1}| + 2 = |v_n| plus
    # the quadratic form slot one even step above the top generator
    return 2 * (p**n - 1) + 2


def build_scenario(p: int, n: int, window=None, laurent: int = 2) -> MoravaScenario:
    if not isinstance(p, int) or not is_prime(p):
        raise SemanticError("p must be prime, got %r" % (p,))
    if not isinstance(n, int) or n < 1:
        raise SemanticError("n must be a positive integer")
    need = minimum_window(p, n)
    if window is None:
        window = need
    if window < need:
        raise WindowTooSmall(
            "window %d cannot hold degree %d data" % (window, need)
        )
    gens = [Generator("v%d" % i, 2 * (p**i - 1)) for i in range(1, n)]
    gens.append(Generator("v%d" % n, 2 * (p**n - 1), invertible=True))
    ring = GradedRing(
        BaseRing.integers_localized(p),
        gens,
        degree_window=window,
        laurent_window=laurent,
    )
    sequence = [ring.constant(p)]
    for i in range(1, n):
        sequence.append(ring.var("v%d" % i))
    if p == 2:
        tokens = []
        for k, x in enumerate(sequence):
            if k < n - 1:
                tokens.append(ProductToken(x))
            else:
                tokens.append(ProductToken(x, ring.var("v%d" % n)))
        spec = QuotientRingSpec(ring, sequence, tokens)
    else:
        spec = QuotientRingSpec(ring, sequence)
    return MoravaScenario(p, n, ring, spec, window, laurent)

