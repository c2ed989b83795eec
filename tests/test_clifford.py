import random
from fractions import Fraction
from itertools import combinations

import pytest

from regquot.clifford import (
    AlgebraMap,
    BruteForceModel,
    CliffordAlgebra,
    TensorAlgebra,
    antipode,
    augmentation,
    brute_force_presentation,
    homology_presentation,
    induced_algebra_map,
    orthogonal_split,
    presentation_of,
    tau,
)
from regquot.conormal import ProductToken, QuotientRingSpec, conormal_module, zero_form
from regquot.derivations import DerivationOperator, Psi, bockstein, compose, kronecker_dual
from regquot.errors import (
    BadIndex,
    BoundTooSmall,
    MixedAlgebras,
    MixedCoefficients,
    NotCompatible,
    NotExterior,
    NotInIdeal,
    SemanticError,
)
from regquot.morava import build_scenario, kn_algebra
from regquot.ring import GradedRing, Generator, QuotientRing
from regquot.scalars import BaseRing


@pytest.fixture
def z_ring():
    return GradedRing(BaseRing.integers(), [], degree_window=4)


@pytest.fixture
def k1_setup():
    ring = GradedRing(
        BaseRing.integers_localized(2),
        [Generator("v1", 2, invertible=True)],
        degree_window=6,
    )
    two = ring.constant(2)
    spec = QuotientRingSpec(ring, [two], [ProductToken(two, ring.var("v1"))])
    pres, cl = homology_presentation(spec)
    return ring, spec, pres, cl


@pytest.fixture
def f2_xy():
    return GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )


def test_k1_square_is_v1(k1_setup):
    ring, spec, pres, cl = k1_setup
    a0 = cl.generator(0)
    assert a0 * a0 == cl.scalar(ring.var("v1"))
    assert not cl.is_exterior()


def test_k1_presentation_shape(k1_setup):
    ring, spec, pres, cl = k1_setup
    assert pres.kind == "clifford"
    assert pres.generators == (("a0", 1),)
    assert pres.relations == ("a0^2 - v1*1",)
    assert pres.display == "T(a0)/(a0^2 - v1*1)"
    assert pres.warnings == ()


def test_odd_primary_presentation_is_exterior():
    ring = GradedRing(
        BaseRing.integers_localized(3),
        [Generator("v1", 4, invertible=True)],
        degree_window=6,
    )
    spec = QuotientRingSpec(ring, [ring.constant(3)])
    pres, cl = homology_presentation(spec)
    assert pres.kind == "exterior"
    assert pres.display == "Lambda(a0)"
    assert pres.relations == ("a0^2",)
    a0 = cl.generator(0)
    assert (a0 * a0).is_zero()


def test_anticommute_over_integers():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0])
    a0, a1 = cl.generator(0), cl.generator(1)
    assert a1 * a0 == -(a0 * a1)
    assert (a0 * a0).is_zero()
    assert cl.is_exterior()


def test_unit_times_conjugate(k1_setup):
    ring, spec, pres, cl = k1_setup
    a0 = cl.generator(0)
    v1 = ring.var("v1")
    # (1 + a0)(1 - a0) = 1 - a0^2 = 1 - v1, and -1 folds to 1 mod 2
    prod = (cl.one() + a0) * (cl.one() - a0)
    assert prod == cl.scalar(ring.constant(1) + v1)


def test_phi_sends_sequence_entries_to_generators(f2_xy):
    x, y = f2_xy.var("x"), f2_xy.var("y")
    spec = QuotientRingSpec(f2_xy, [x, y])
    pres, cl = homology_presentation(spec)
    assert cl.phi(x) == cl.generator(0)
    assert cl.phi(y) == cl.generator(1)
    # the cross term x*y lands in I^2, so only the linear part survives
    assert cl.phi(x + x * y) == cl.generator(0)
    with pytest.raises(NotInIdeal):
        cl.phi(f2_xy.one())


def test_phi_with_unit_coefficient(k1_setup):
    ring, spec, pres, cl = k1_setup
    c = ring.constant(1) + ring.var("v1")
    val = cl.phi(ring.constant(2) + ring.constant(2) * ring.var("v1"))
    assert val == cl.generator(0) * c


def test_degrees_in_graded_mode(k1_setup):
    ring, spec, pres, cl = k1_setup
    a0 = cl.generator(0)
    assert a0.degree() == 1
    assert (a0 * ring.var("v1")).degree() == 3
    assert cl.scalar(ring.var("v1")).degree() == 2
    assert cl.word_degree((0,)) == 1


def test_antipode_involution_and_automorphism(k1_setup):
    ring, spec, pres, cl = k1_setup
    a0 = cl.generator(0)
    u = cl.one() + a0
    v = cl.scalar(ring.var("v1")) + a0
    assert antipode(a0) == -a0
    assert antipode(antipode(u)) == u
    assert antipode(u * v) == antipode(u) * antipode(v)


def test_antipode_sign_per_word_length():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0, 0])
    for w in cl.basis_words():
        u = cl.element({w: 1})
        expect = cl.element({w: -1 if len(w) % 2 else 1})
        assert antipode(u) == expect


def test_augmentation_requires_zero_form(k1_setup):
    ring, spec, pres, cl = k1_setup
    ext = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0, 0])
    u = ext.one() + ext.generator(0) + ext.generator(0) * ext.generator(1)
    assert augmentation(u) == 1
    with pytest.raises(NotExterior):
        augmentation(cl.one())


def test_scalar_diagonal_mode():
    cl = CliffordAlgebra.from_scalars(BaseRing.prime_field(3), [1, 2])
    a0, a1 = cl.generator(0), cl.generator(1)
    assert a0 * a0 == cl.scalar(1)
    assert a1 * a1 == cl.scalar(2)
    assert (a0 * a1 + a1 * a0).is_zero()


def test_cross_terms_enter_products():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0], cross={(0, 1): 5})
    a0, a1 = cl.generator(0), cl.generator(1)
    assert a0 * a1 + a1 * a0 == cl.scalar(5)
    assert a1 * a0 == -(a0 * a1) + cl.scalar(5)


def test_basis_words_rank_two():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0])
    assert cl.basis_words() == ((), (0,), (1,), (0, 1))


def test_basis_words_built_once_as_a_tuple():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0, 0])
    words = cl.basis_words()
    assert isinstance(words, tuple) and len(words) == 8
    assert cl.basis_words() is words


def test_mixed_algebras_guard():
    cl1 = CliffordAlgebra.from_scalars(BaseRing.integers(), [0])
    cl2 = CliffordAlgebra.from_scalars(BaseRing.integers(), [1])
    with pytest.raises(MixedAlgebras):
        cl1.generator(0) + cl2.generator(0)


def test_element_repr():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0])
    u = cl.one() + cl.generator(0) * 3
    assert repr(u) == "1 + 3*a0"
    assert repr(cl.zero()) == "0"


def test_tensor_product_signs():
    ext = CliffordAlgebra.from_scalars(BaseRing.integers(), [0])
    tp = TensorAlgebra(ext, ext)
    a = ext.generator(0)
    left = tp.pure(a, ext.one())
    right = tp.pure(ext.one(), a)
    both = tp.pure(a, a)
    assert left * right == both
    # moving a over a picks up the Koszul sign
    assert right * left == -both
    assert tau(left) == right
    assert tau(both) == -both


def test_tensor_mixed_coefficients_guard():
    cl1 = CliffordAlgebra.from_scalars(BaseRing.integers(), [0])
    cl2 = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0])
    with pytest.raises(MixedCoefficients):
        TensorAlgebra(cl1, cl2)


def test_orthogonal_split_is_algebra_iso():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [2, 0, 3])
    tp, split = orthogonal_split(cl, 1)
    words = cl.basis_words()
    images = [split(cl.element({w: 1})) for w in words]
    # bijective on the basis
    assert len({tuple(sorted(img.terms)) for img in images}) == len(words)
    for u in words:
        for v in words:
            eu = cl.element({u: 1})
            ev = cl.element({v: 1})
            assert split(eu) * split(ev) == split(eu * ev)


def test_orthogonal_split_rejects_cross_terms():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0], cross={(0, 1): 1})
    with pytest.raises(NotCompatible):
        orthogonal_split(cl, 1)


def test_induced_map_multiplies_by_two(z_ring):
    spec_big = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    spec_small = QuotientRingSpec(z_ring, [z_ring.constant(8)])
    k4 = QuotientRing(z_ring, (z_ring.constant(4),))
    _, cl_big = homology_presentation(spec_big, k4)
    _, cl_small = homology_presentation(spec_small, k4)
    fmap = induced_algebra_map(cl_big, cl_small)
    assert fmap.apply(cl_big.generator(0)) == cl_small.generator(0) * 2


def test_induced_map_vanishes_mod_two(z_ring):
    spec_big = QuotientRingSpec(z_ring, [z_ring.constant(16)])
    spec_small = QuotientRingSpec(z_ring, [z_ring.constant(8)])
    k2 = QuotientRing(z_ring, (z_ring.constant(2),))
    _, cl_big = homology_presentation(spec_big, k2)
    _, cl_small = homology_presentation(spec_small, k2)
    fmap = induced_algebra_map(cl_big, cl_small)
    assert fmap.apply(cl_big.generator(0)).is_zero()


def test_algebra_map_rejects_bad_images():
    src = CliffordAlgebra.from_scalars(BaseRing.integers(), [1])
    tgt = CliffordAlgebra.from_scalars(BaseRing.integers(), [0])
    with pytest.raises(NotCompatible):
        AlgebraMap(src, tgt, [tgt.generator(0)])


def test_brute_force_basis_and_products():
    pres, model = brute_force_presentation(
        2, [[0, 0], [0, 0]], base=BaseRing.prime_field(2)
    )
    assert pres.kind == "exterior"
    assert pres.display == "Lambda(a0, a1)"
    assert model.basis() == [(), (0,), (1,), (0, 1)]
    assert model.product((0,), (1,)) == {(0, 1): 1}
    # the sign of the swap is invisible mod 2
    assert model.product((1,), (0,)) == {(0, 1): 1}


def test_brute_force_integer_products():
    pres, model = brute_force_presentation(
        2, [[2, 0], [0, 3]], base=BaseRing.integers()
    )
    assert pres.kind == "clifford"
    assert model.product((0,), (0,)) == {(): 2}
    assert model.product((1,), (0,)) == {(0, 1): -1}


def test_brute_force_matches_engine():
    rng = random.Random(20260823)
    bases = [BaseRing.prime_field(2), BaseRing.prime_field(3), BaseRing.integers()]
    for trial in range(6):
        base = bases[trial % 3]
        n = 1 + trial % 3
        matrix = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        cross = {
            (i, j): matrix[i][j] + matrix[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        }
        cl = CliffordAlgebra.from_scalars(
            base, [matrix[i][i] for i in range(n)], cross=cross
        )
        _, model = brute_force_presentation(n, matrix, base=base)
        for w1 in cl.basis_words():
            for w2 in cl.basis_words():
                assert cl.word_product(w1, w2) == model.product(w1, w2)


def test_element_products_match_brute_force():
    """Products of seeded multi-term elements over Z, F_3, Z/4 and Z_(2),
    with nonzero diagonal and cross forms, equal the brute-force model's
    rewriting, and every element the arithmetic builds holds only nonzero
    coefficients that ``coerce`` leaves unchanged."""
    cases = [
        (BaseRing.integers(), [1, -1, 2, 3]),
        (BaseRing.prime_field(3), [1, 2, 4]),
        (BaseRing.integers_mod(4), [1, 2, 3, 5]),
        (BaseRing.integers_localized(2), [1, 2, Fraction(1, 3), Fraction(-2, 5)]),
    ]
    for base, values in cases:
        rng = random.Random("element-products:%r" % (base,))
        for n in (2, 3):
            matrix = [[rng.choice(values + [0]) for _ in range(n)] for _ in range(n)]
            # a nonzero square and a nonzero cross term in every form
            matrix[0][0], matrix[0][1], matrix[1][0] = 1, 1, 0
            cross = {(i, j): matrix[i][j] + matrix[j][i] for i, j in combinations(range(n), 2)}
            cl = CliffordAlgebra.from_scalars(base, [matrix[i][i] for i in range(n)], cross=cross)
            model = BruteForceModel(base, matrix)
            words = cl.basis_words()

            def rand_elem():
                picked = rng.sample(words, rng.randint(1, len(words)))
                return cl.element({w: rng.choice(values) for w in picked})

            def canonical(u):
                for c in u.terms.values():
                    assert not base.is_zero(c) and base.coerce(c) == c
                    assert type(base.coerce(c)) is type(c)
                return u

            for _ in range(12):
                u, v = rand_elem(), rand_elem()
                want = {}
                for w1, c1 in u.terms.items():
                    for w2, c2 in v.terms.items():
                        for w, c in model.product(w1, w2).items():
                            val = base.mul(base.mul(c1, c2), c)
                            want[w] = base.add(want.get(w, base.zero()), val)
                assert canonical(u * v).terms == {w: c for w, c in want.items() if c != 0}
                for built in (u, u + v, u - v, -u, u * 3, 2 * v, antipode(u)):
                    canonical(built)


def test_stored_coefficients_are_truthy_and_nonzero():
    """The algebras test a stored coefficient for zero by its truth value.
    Over Z, F_3, Z/4 and Z_(2), and over the graded coefficients of K(2) at
    p = 2, every coefficient that seeded sums, products, derivation
    matrices and dual tables store is truthy, and the ring's own
    ``is_zero`` rejects each one; inputs include values that reduce to
    zero, and Z/4 and Z_(2)/(2) have products that do."""
    bases = [
        (BaseRing.integers(), [1, -1, 2, 3]),
        (BaseRing.prime_field(3), [1, 2, 3, 4]),
        (BaseRing.integers_mod(4), [1, 2, 3, 4]),
        (BaseRing.integers_localized(2), [1, 2, Fraction(1, 3), Fraction(-2, 5)]),
    ]
    # (algebra, exterior algebra over the same ring, coefficient inputs)
    cases = [
        (
            CliffordAlgebra.from_scalars(base, [1, 0, 2], cross={(0, 2): 1}),
            CliffordAlgebra.from_scalars(base, [0, 0, 0]),
            values,
        )
        for base, values in bases
    ]
    sc = build_scenario(2, 2)
    module = conormal_module(sc.spec)
    graded_ext = CliffordAlgebra(module, zero_form(module))
    cases.append((kn_algebra(sc)[1], graded_ext, [1, 2, 3, -1, sc.ring.var("v1")]))
    assert not sc.ring.zero() and sc.ring.one()
    for cl, ext, values in cases:
        coeff = cl.coeff
        assert ext.coeff == coeff and not coeff.zero() and coeff.one()
        rng = random.Random("truthy-coefficients:%r" % (coeff,))

        def stored(cs):
            for c in cs:
                assert c and not coeff.is_zero(c)

        def rand_elem(alg):
            words = alg.basis_words()
            picked = rng.sample(words, rng.randint(1, len(words)))
            return alg.element({w: rng.choice(values) for w in picked})

        for _ in range(10):
            u, v = rand_elem(cl), rand_elem(cl)
            for built in (u, v, u * v, v * u, u + v, u - v, u * 2, antipode(u)):
                stored(built.terms.values())
        ops = [bockstein(ext, i) * rng.choice(values) for i in range(ext.n)]
        if ext.degrees is None:
            for _ in range(3):
                ops.append(DerivationOperator(ext, [rng.choice(values) for _ in range(ext.n)]))
        for _ in range(10):
            op = compose(rng.choices(ops, k=rng.randint(1, 3)))
            for row in op.matrix.values():
                stored(row.values())
            stored(Psi(op).table.values())
        for op in ops:
            stored(c for _, c in op.support)
        dual = kronecker_dual(ext, {w: rng.choice(values) for w in ext.basis_words()})
        stored(dual.table.values())


def test_trivial_quotient_coefficients_have_zero_one():
    """Over a quotient that holds 1, the stored unit is the reduced one, so
    ``one`` and the generators are zero elements."""
    R = GradedRing(BaseRing.integers(), [Generator("x", 2)], degree_window=4)
    coeff = QuotientRing(R, [R.constant(1)])
    assert coeff.one().is_zero()
    cl = CliffordAlgebra._raw(coeff, ("a0",), (1,), (coeff.zero(),), {})
    assert cl.one().is_zero() and cl.generator(0).is_zero()


def test_tensor_element_checks_words_and_coefficients():
    """``TensorAlgebra.element`` checks each word as
    ``CliffordAlgebra.element`` does and stores coerced coefficients."""
    cl = CliffordAlgebra.from_scalars(BaseRing.prime_field(3), [1, 2])
    t = TensorAlgebra(cl, cl)
    with pytest.raises(BadIndex):
        t.element({((0,), (5,)): 1})
    with pytest.raises(SemanticError):
        t.element({((1, 0), ()): 1})
    with pytest.raises(SemanticError):
        t.element({((0,), (1, 1)): 1})
    # a generator index is checked as a one-letter word
    for i in (0.5, 2, -1):
        with pytest.raises(BadIndex):
            cl.generator(i)
    u = t.element({((0, 1), (1,)): 7, ((), ()): 3})
    assert u.terms == {((0, 1), (1,)): 1}
    # (a0*a1)^2 = -q0*q1 = -2 and a1^2 = q1 = 2, so the square is -4 = 2
    assert u * u == t.element({((), ()): 2})


def test_brute_force_bound_too_small():
    model = BruteForceModel(
        BaseRing.integers(),
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        word_bound=2,
    )
    with pytest.raises(BoundTooSmall):
        model.normal_form({(2, 1, 0): 1})


def test_mixed_presentation_display():
    cl = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0, 1])
    pres = presentation_of(cl)
    assert pres.display == "Lambda(a0) (x) T(a1)/(a1^2 - 1*1)"
    assert pres.relations == ("a0^2", "a1^2 - 1*1", "a0*a1 + a1*a0")


def test_lift_only_warning_for_unverified_sequence(f2_xy):
    x = f2_xy.var("x")
    spec = QuotientRingSpec(f2_xy, [x, x])
    pres, cl = homology_presentation(spec)
    assert not spec.is_regular
    assert any("lift only" in w for w in pres.warnings)
