"""Named coefficient scenarios: local Laurent rings with their quotient data.

A scenario at a prime p and height n carries the ring
Z_(p)[v1, ..., v_{n-1}, vn^{±1}] with |v_i| = 2(p^i - 1) and the quotient
sequence (p, v1, ..., v_{n-1}).  At odd primes every product token is
commutative; at p = 2 the last entry carries the obstruction vn and the
earlier ones vanish in the quotient coefficients.
"""
from __future__ import annotations

from typing import NamedTuple

from .clifford import AlgebraPresentation, homology_presentation
from .conormal import (
    BilinearFormData,
    ProductToken,
    QuotientRingSpec,
    characteristic_form_diagonal,
    opposite_form,
)
from .derivations import cohomology_presentation
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

    def generator_degree(self, i: int) -> int:
        return 2 * (self.p**i - 1)


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


def obstruction_degree_consistent(scenario: MoravaScenario) -> bool:
    """2|v_{n-1}| + 2 must equal |v_n| when p = 2."""
    if scenario.p != 2:
        return True
    low = scenario.generator_degree(scenario.n - 1)
    return 2 * low + 2 == scenario.generator_degree(scenario.n)


def kn_algebra(scenario: MoravaScenario):
    """Presentation and computing algebra of the quotient homology."""
    return homology_presentation(scenario.spec)


def kn_homology(scenario: MoravaScenario) -> AlgebraPresentation:
    pres, _ = kn_algebra(scenario)
    return pres


def kn_cohomology(scenario: MoravaScenario) -> AlgebraPresentation:
    return cohomology_presentation(scenario.spec)


def kn_form(scenario: MoravaScenario) -> BilinearFormData:
    return characteristic_form_diagonal(scenario.spec)


def kn_opposite_form_agrees(scenario: MoravaScenario) -> bool:
    """The opposite product data induces the same diagonal form."""
    obs = [tok.obstruction_or_zero() for tok in scenario.spec.products]
    ring_form, mixed = opposite_form(scenario.spec, obs)
    return ring_form.entries == kn_form(scenario).entries and mixed.is_zero()
