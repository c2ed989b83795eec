import random

import pytest

import regquot.derivations as derivations_module
from regquot.clifford import CliffordAlgebra, CliffordElement, homology_presentation
from regquot.conormal import QuotientRingSpec, conormal_module, zero_form
from regquot.derivations import (
    CohomologyOperator,
    Delta,
    DerivationOperator,
    Psi,
    bockstein,
    cohomology_presentation,
    compose,
    duality_square_commutes,
    generator_checks,
    kronecker_dual,
    leibniz_check,
    theta,
    theta_rank,
)
from regquot.errors import (
    BadIndex,
    DegreeMismatch,
    MixedOwners,
    NotExterior,
    NotRegular,
    SemanticError,
)
from regquot.ring import GradedRing, Generator, QuotientRing
from regquot.scalars import BaseRing


@pytest.fixture
def ext2():
    return CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0])


@pytest.fixture
def ext3():
    return CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0, 0])


@pytest.fixture
def k2_p3():
    # coefficients for the second scenario at the odd prime 3
    ring = GradedRing(
        BaseRing.integers_localized(3),
        [Generator("v1", 4), Generator("v2", 16, invertible=True)],
        degree_window=18,
    )
    spec = QuotientRingSpec(ring, [ring.constant(3), ring.var("v1")])
    module = conormal_module(spec)
    ext = CliffordAlgebra(module, zero_form(module))
    return ring, spec, ext


def test_bockstein_delta_rules(ext2):
    q0 = bockstein(ext2, 0)
    a0, a1 = ext2.generator(0), ext2.generator(1)
    assert q0.apply(a0) == ext2.one()
    assert q0.apply(ext2.one()).is_zero()
    assert q0.apply(a1).is_zero()
    assert q0.apply(a0 * a1) == a1


def test_partial_position_sign(ext2):
    q1 = bockstein(ext2, 1)
    a0, a1 = ext2.generator(0), ext2.generator(1)
    # stripping the second letter picks up one sign
    assert q1.apply(a0 * a1) == -a0


def test_bockstein_index_and_owner_guards(ext2):
    with pytest.raises(BadIndex):
        bockstein(ext2, 2)
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [1])
    with pytest.raises(NotExterior):
        bockstein(cl, 0)


def test_leibniz_exhaustive(ext3):
    for i in range(3):
        assert leibniz_check(bockstein(ext3, i))
    zero = DerivationOperator(ext3, [0, 0, 0])
    assert leibniz_check(zero)


def test_composition_is_not_a_derivation(ext2):
    both = compose([bockstein(ext2, 0), bockstein(ext2, 1)])
    assert not leibniz_check(both)


def test_compose_square_and_anticommute(ext3):
    qs = [bockstein(ext3, i) for i in range(3)]
    assert compose([qs[0], qs[0]]).is_zero()
    assert compose([qs[0], qs[1]]) == compose([qs[1], qs[0]]).negated()


def test_empty_composition_is_identity(ext2):
    ident = compose([], owner=ext2)
    u = ext2.generator(0) * ext2.generator(1) + ext2.one() * 4
    assert ident.apply(u) == u
    assert ident.word == ()


def test_compose_mixed_owners(ext2, ext3):
    with pytest.raises(MixedOwners):
        compose([bockstein(ext2, 0), bockstein(ext3, 0)])


def test_theta_words_and_rank(ext3):
    op = theta(ext3, (0, 1))
    assert op.word == (0, 1)
    assert theta_rank(ext3) == 8
    top = ext3.element({(0, 1, 2): 1})
    img = theta(ext3, (0, 1)).apply(top)
    # the result is a unit multiple of the complementary word
    assert set(img.terms) == {(2,)}
    assert img.terms[(2,)] in (1, -1)


def test_cohomology_presentation_rank_one():
    ring = GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )
    spec = QuotientRingSpec(ring, [ring.var("x")])
    pres = cohomology_presentation(spec)
    assert pres.kind == "exterior"
    assert pres.generators == (("Q0", -3),)
    assert pres.display == "Lambda(Q0)"


def test_cohomology_presentation_k2_degrees(k2_p3):
    ring, spec, ext = k2_p3
    pres = cohomology_presentation(spec)
    assert pres.generators == (("Q0", -1), ("Q1", -5))
    assert pres.display == "Lambda(Q0, Q1)"
    assert pres.relations[:2] == ("Q0^2", "Q1^2")


def test_cohomology_presentation_requires_regular():
    ring = GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )
    spec = QuotientRingSpec(ring, [ring.var("x"), ring.var("x")])
    with pytest.raises(NotRegular):
        cohomology_presentation(spec)


def test_operator_degree_mismatch(k2_p3):
    # v1 itself dies in the coefficients, but v2 survives and its degree
    # cannot be shared between the two generator slots
    ring, spec, ext = k2_p3
    assert ext.coeff.coerce(ring.var("v1")).is_zero()
    # v2 has degree 16 and Q1's generator degree 5
    assert (bockstein(ext, 1) * ring.var("v2")).degree == 11
    with pytest.raises(DegreeMismatch):
        DerivationOperator(ext, [ring.var("v2"), ring.constant(1)])
    with pytest.raises(DegreeMismatch):
        bockstein(ext, 0) + bockstein(ext, 1) * ring.var("v2")


def test_effder_identity(k2_p3):
    ring, spec, ext = k2_p3
    ops = [
        bockstein(ext, 0),
        bockstein(ext, 1) * ring.var("v2"),
    ]
    f2 = GradedRing(
        BaseRing.prime_field(2), [Generator("x", 2), Generator("y", 2)], degree_window=8
    )
    fspec = QuotientRingSpec(f2, [f2.var("x"), f2.var("y")])
    fmod = conormal_module(fspec)
    fext = CliffordAlgebra(fmod, zero_form(fmod))
    ops.append(bockstein(fext, 0) + bockstein(fext, 1))
    for theta_op in ops:
        owner = theta_op.owner
        for j in range(owner.n):
            assert theta_op.apply(owner.generator(j)) == owner.scalar(theta_op.images[j])


def test_Psi_projects_to_counit(ext2):
    f = Psi(bockstein(ext2, 0))
    assert f.value((0,)) == 1
    assert f.value(()) == 0
    assert f.value((1,)) == 0
    assert f.value((0, 1)) == 0


def test_Delta_empty_word_is_counit(ext2):
    f = Delta(ext2, ())
    assert f.value(()) == 1
    assert f.support() == ((),)


def test_duality_square_scalar_ranks():
    for n in range(1, 4):
        ext = CliffordAlgebra.from_scalars(BaseRing.integers(), [0] * n)
        assert duality_square_commutes(ext)
    f2 = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0, 0, 0])
    assert duality_square_commutes(f2)


def test_duality_square_graded(k2_p3):
    ring, spec, ext = k2_p3
    assert duality_square_commutes(ext)


def test_duality_square_checks_the_form_once(monkeypatch):
    # the public Delta keeps its check, and the square checks its form once
    ext = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0] * 4)
    qs = [bockstein(ext, i) for i in range(4)]
    calls = []
    real = derivations_module._require_exterior
    monkeypatch.setattr(
        derivations_module, "_require_exterior", lambda a: calls.append(a) or real(a)
    )
    assert duality_square_commutes(ext, qs)
    assert calls == [ext]
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [1])
    with pytest.raises(NotExterior):
        Delta(cl, (0,))


def test_two_route_value_on_top_word(ext2):
    lhs = Psi(theta(ext2, (0, 1)))
    rhs = Delta(ext2, (0, 1))
    assert lhs.value((0, 1)) == rhs.value((0, 1))
    assert lhs.value((0, 1)) in (1, -1)


def test_kronecker_dual_tabulates(ext2, ext3):
    eps = kronecker_dual(ext2, {(): 1})
    assert eps.value(()) == 1
    assert eps.value((0,)) == 0
    y0 = kronecker_dual(ext2, {(0,): 1})
    assert Psi(bockstein(ext2, 0)) == y0
    point = CliffordAlgebra.from_scalars(BaseRing.integers(), [])
    f = kronecker_dual(point, {(): 5})
    assert f.value(()) == 5
    # each word is checked as CliffordAlgebra.element checks it
    with pytest.raises(SemanticError):
        kronecker_dual(ext3, {(2, 0): 1})
    with pytest.raises(BadIndex):
        kronecker_dual(ext3, {(5,): 1})


def test_Psi_requires_exterior():
    cl = CliffordAlgebra.from_scalars(BaseRing.integers(), [1])

    class FakeOp:
        owner = cl
        parity = 1

        def apply(self, e):
            return e

    with pytest.raises(NotExterior):
        Psi(FakeOp())


# -- oracle: the dense operator tables of the earlier implementation ----
#
# ``RefCohomologyOperator`` and ``ref_operator_matrix`` keep the dense
# 2^n x 2^n tables that the sparse ``CohomologyOperator`` replaced, and
# ``ref_derivation_apply`` the earlier derivation action, so the oracle
# shares no arithmetic with the code under test beyond the coefficients.


def ref_derivation_apply(op, elem):
    coeff = op.owner.coeff
    out = {}
    for w, c in elem.terms.items():
        for t, i in enumerate(w):
            ci = op.images[i]
            if coeff.is_zero(ci):
                continue
            val = coeff.mul(c, ci)
            if t % 2:
                val = coeff.neg(val)
            word = w[:t] + w[t + 1 :]
            out[word] = coeff.add(out.get(word, coeff.zero()), val)
    return CliffordElement(op.owner, out)


def ref_operator_matrix(algebra, fn):
    """Row-per-input matrix of a linear operator on the 2^n word basis."""
    basis = algebra.basis_words()
    index = {w: t for t, w in enumerate(basis)}
    coeff = algebra.coeff
    rows = []
    for w in basis:
        img = fn(algebra.element({w: coeff.one()}))
        row = [coeff.zero()] * len(basis)
        for u, c in img.terms.items():
            row[index[u]] = c
        rows.append(tuple(row))
    return tuple(rows)


class RefCohomologyOperator:
    """Linear endo-operator stored as a dense matrix."""

    def __init__(self, owner, matrix, parity):
        self.owner = owner
        self.matrix = tuple(tuple(row) for row in matrix)
        self.parity = parity

    def apply(self, elem):
        coeff = self.owner.coeff
        basis = self.owner.basis_words()
        index = {w: t for t, w in enumerate(basis)}
        out = {}
        for w, c in elem.terms.items():
            row = self.matrix[index[w]]
            for t, entry in enumerate(row):
                if coeff.is_zero(entry):
                    continue
                val = coeff.mul(c, entry)
                if coeff.is_zero(val):
                    continue
                u = basis[t]
                out[u] = coeff.add(out.get(u, coeff.zero()), val)
        return CliffordElement(self.owner, out)

    def is_zero(self):
        coeff = self.owner.coeff
        return all(coeff.is_zero(e) for row in self.matrix for e in row)

    def negated(self):
        coeff = self.owner.coeff
        return RefCohomologyOperator(
            self.owner,
            [[coeff.neg(e) for e in row] for row in self.matrix],
            self.parity,
        )

    def __eq__(self, other):
        return self.owner == other.owner and self.matrix == other.matrix


def ref_compose(ops, owner):
    coeff = owner.coeff
    if not ops:
        size = 2**owner.n
        rows = [
            [coeff.one() if r == c else coeff.zero() for c in range(size)]
            for r in range(size)
        ]
        return RefCohomologyOperator(owner, rows, 0)

    def run(elem):
        for op in reversed(ops):
            elem = ref_derivation_apply(op, elem)
        return elem

    return RefCohomologyOperator(owner, ref_operator_matrix(owner, run), len(ops) % 2)


def ref_theta_rank(algebra):
    """Distinct unit-coefficient images of the top word under the tabulated
    operator of every subset word."""
    coeff = algebra.coeff
    top = algebra.element({tuple(range(algebra.n)): coeff.one()})
    subsets = [()]
    for i in range(algebra.n):
        subsets = subsets + [s + (i,) for s in subsets]
    units = (coeff.one(), coeff.neg(coeff.one()))
    seen = set()
    for s in subsets:
        ops = [bockstein(algebra, i) for i in s]
        img = ref_compose(ops, algebra).apply(top)
        if len(img.terms) == 1:
            ((word, c),) = img.terms.items()
            if c in units:
                seen.add(word)
    return len(seen)


def _sparse(ref):
    """The dense reference matrix as a dict of nonzero rows."""
    coeff = ref.owner.coeff
    basis = ref.owner.basis_words()
    rows = {}
    for w, row in zip(basis, ref.matrix):
        terms = {u: c for u, c in zip(basis, row) if not coeff.is_zero(c)}
        if terms:
            rows[w] = terms
    return rows


ORACLE_BASES = {
    "Z": BaseRing.integers(),
    "F3": BaseRing.prime_field(3),
    # a zero divisor: 2*2 = 0 kills products of nonzero entries
    "Z/4": BaseRing.integers_mod(4),
}


@pytest.mark.parametrize("base_name", sorted(ORACLE_BASES))
def test_sparse_operator_matches_dense_oracle(base_name):
    """``compose`` on seeded random derivation sequences against the dense
    tables: the matrix, ``apply`` on every basis word and on a random
    element, ``is_zero``, ``negated`` and ``==``."""
    base = ORACLE_BASES[base_name]
    rng = random.Random("sparse-operator:%s" % base_name)
    values = [0, 0, 1, -1, 2, -2, 3]
    zeros = equal = 0
    for n in range(1, 5):
        ext = CliffordAlgebra.from_scalars(base, [0] * n)
        basis = ext.basis_words()
        cases = []
        for _ in range(12):
            length = rng.randrange(4)
            pool = [
                DerivationOperator(ext, [rng.choice(values) for _ in range(n)])
                for _ in range(2)
            ]
            ops = [rng.choice(pool) for _ in range(length)]
            cases.append((compose(ops, owner=ext), ref_compose(ops, ext)))
            if length == 2:
                # the swapped order: odd derivations anticommute
                swapped = ops[::-1]
                cases.append(
                    (compose(swapped, owner=ext).negated(), ref_compose(swapped, ext).negated())
                )
        for op, ref in cases:
            assert op.matrix == _sparse(ref)
            assert op.is_zero() == ref.is_zero()
            zeros += ref.is_zero()
            assert op.parity == ref.parity
            sample = ext.element({w: rng.choice(values) for w in basis})
            for elem in [ext.element({w: 1}) for w in basis] + [sample]:
                assert op.apply(elem) == ref.apply(elem)
                assert op.negated().apply(elem) == ref.negated().apply(elem)
            assert op.negated().matrix == _sparse(ref.negated())
        for (a, ra), (b, rb) in zip(cases, cases[1:] + cases[:1]):
            assert (a == b) == (ra == rb)
            assert (a == a.negated()) == (ra == ra.negated())
            equal += ra == rb
    # the draws include zero composites and equal neighbours, so ``is_zero``
    # and ``==`` are tested both ways
    assert zeros and equal


def test_theta_rank_matches_dense_oracle(k2_p3):
    """``theta_rank`` equals the tabulated ``ref_theta_rank`` at ranks 0-7
    over Z, F_2, Z/4 and Z_(3) and on graded coefficients, and is 0 over the
    trivial quotient R/(1), whose ``one`` is zero."""
    for base in (BaseRing.integers(), BaseRing.prime_field(2),
                 BaseRing.integers_mod(4), BaseRing.integers_localized(3)):
        for n in range(8):
            ext = CliffordAlgebra.from_scalars(base, [0] * n)
            assert theta_rank(ext) == ref_theta_rank(ext) == 2**n
        R = GradedRing(base, [Generator("x", 2)], degree_window=4)
        coeff = QuotientRing(R, [R.constant(1)])
        for n in range(3):
            names, degrees = tuple("a%d" % i for i in range(n)), (1,) * n
            trivial = CliffordAlgebra._raw(coeff, names, degrees, (coeff.zero(),) * n, {})
            assert theta_rank(trivial) == 0
    _, _, ext = k2_p3
    assert theta_rank(ext) == ref_theta_rank(ext) == 4


# -- oracle: Leibniz on every pair of basis words -----------------------


def ref_leibniz_check(op):
    """The exhaustive 4^n loop that ``leibniz_check`` ran before it
    checked only the pairs (1 or a generator, basis word)."""
    algebra = op.owner
    one = algebra.coeff.one()
    words = algebra.basis_words()
    for wu in words:
        u = algebra.element({wu: one})
        for wv in words:
            v = algebra.element({wv: one})
            lhs = op.apply(u * v)
            second = u * op.apply(v)
            if op.parity % 2 and len(wu) % 2:
                second = -second
            if lhs != op.apply(u) * v + second:
                return False
    return True


def _random_sparse_operator(ext, rng, values):
    """A seeded sparse operator of random parity on a few basis words."""
    basis = ext.basis_words()
    coeff = ext.coeff
    matrix = {}
    for w in rng.sample(basis, rng.randrange(min(3, len(basis)) + 1)):
        row = {}
        for u in rng.sample(basis, rng.randrange(1, min(2, len(basis)) + 1)):
            c = coeff.coerce(rng.choice(values))
            if not coeff.is_zero(c):
                row[u] = c
        if row:
            matrix[w] = row
    return CohomologyOperator(ext, matrix, parity=rng.randrange(2))


def _signed_map(ext, signs):
    """``(op, ref)`` for a signed word map: ``op`` is a derivation whose
    cached ``signs`` and ``matrix`` are replaced by the map's, so that
    ``leibniz_check`` reads the map, and ``ref`` the odd operator with the
    map's matrix, for the oracle."""
    one = ext.coeff.one()
    matrix = {w: {u: one if s > 0 else ext.coeff.neg(one)} for w, (u, s) in signs.items()}
    op = DerivationOperator(ext, [0] * ext.n)
    op.signs, op.matrix = signs, matrix
    return op, CohomologyOperator(ext, matrix, parity=1)


def _random_signed_map(ext, rng):
    """A seeded signed word map: a few basis words, each sent to a random
    subword of itself with sign 1 or -1."""
    signs = {}
    for w in rng.sample(ext.basis_words(), rng.randrange(min(4, 2**ext.n) + 1)):
        signs[w] = (tuple(i for i in w if rng.randrange(2)), rng.choice((1, -1)))
    return _signed_map(ext, signs)


@pytest.mark.parametrize("base_name", sorted(ORACLE_BASES))
def test_leibniz_generator_pairs_match_exhaustive_oracle(base_name):
    """D(1), the rows and the relations decide Leibniz exactly as all 4^n
    basis pairs do: on the Q_i, the zero derivation, composites of 1-3 Q_i
    (odd and even), seeded random derivations, seeded random sparse
    operators of either parity and seeded random signed word maps, handed
    over as derivations' maps, at ranks 0-4."""
    base = ORACLE_BASES[base_name]
    rng = random.Random("leibniz-oracle:%s" % base_name)
    signed = random.Random("leibniz-signed:%s" % base_name)
    values = [0, 0, 1, -1, 2, -2, 3]
    holds = breaks = 0
    for n in range(5):
        ext = CliffordAlgebra.from_scalars(base, [0] * n)
        qs = [bockstein(ext, i) for i in range(n)]
        ops = qs + [DerivationOperator(ext, [0] * n)]
        if n:
            for length in (1, 2, 3):
                for _ in range(4):
                    ops.append(compose([rng.choice(qs) for _ in range(length)]))
        for _ in range(6):
            ops.append(DerivationOperator(ext, [rng.choice(values) for _ in range(n)]))
            ops.append(_random_sparse_operator(ext, rng, values))
        cases = [(op, op) for op in ops]
        cases += [_random_signed_map(ext, signed) for _ in range(40)]
        for op, ref in cases:
            expected = ref_leibniz_check(ref)
            assert leibniz_check(op) == expected, (n, op)
            holds += expected
            breaks += not expected
    # both outcomes occur, so neither a constant True nor a constant False
    # answer passes
    assert holds and breaks


def test_leibniz_default_multiplies_generator_pairs_only(monkeypatch):
    """At rank 5 a Q_i is checked on its signed word map with no Clifford
    product, and a derivation without one makes two products per row and
    per ordered generator pair: 2*(2^n - 1) + 2*n^2, not 3*4^n."""
    n = 5
    ext = CliffordAlgebra.from_scalars(BaseRing.integers(), [0] * n)
    calls = []
    mul = CliffordElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CliffordElement, "__mul__", counted)
    assert leibniz_check(bockstein(ext, 2))
    assert len(calls) == 0
    op = DerivationOperator(ext, [1, 2, 0, 0, -1])
    assert op.signs is None
    assert leibniz_check(op)
    assert len(calls) == 2 * (2**n - 1) + 2 * n**2


def test_leibniz_rows_alone_do_not_decide():
    """The odd operator sending a_0 to a_1 and every other basis word to 0
    passes every row D(w) = D(a_i)w' + e a_i D(w') over Z, so only the
    relation L(0, 0) = D(a_0)a_0 - a_0 D(a_0) = -2 a_0 a_1 refutes it."""
    ext2 = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0])
    op = CohomologyOperator(ext2, {(0,): {(1,): 1}}, parity=1)
    one = ext2.coeff.one()
    for w in ext2.basis_words()[1:]:
        first = op.apply(ext2.element({(w[0],): one})) * ext2.element({w[1:]: one})
        second = ext2.element({(w[0],): one}) * op.apply(ext2.element({w[1:]: one}))
        assert op.apply(ext2.element({w: one})) == first - second
    assert not leibniz_check(op)
    assert not ref_leibniz_check(op)


def test_leibniz_signed_row_with_two_expected_words():
    """A signed word map sending a_0 and a_1 to 1 has the row
    D(a_0 a_1) = a_1 - a_0, two words, which the one signed image
    D(a_0 a_1) = a_1 cannot match, though it matches the first term."""
    ext2 = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0])
    signs = {(0,): ((), 1), (1,): ((), 1), (0, 1): ((1,), 1)}
    op, ref = _signed_map(ext2, signs)
    assert not leibniz_check(op)
    assert not ref_leibniz_check(ref)


# -- oracle: the apply-every-word routes of Psi, Delta and theta(s) -----
#
# ``duality_square_commutes`` strips each subset word through the Q_i's
# signed word maps, ``Psi`` reads the empty-word entries of the matrix rows
# and ``Delta`` expands one word.  The references below are the earlier
# routes: ``ref_compose`` per word, ``Psi`` by applying the operator to
# every basis word, and ``Delta``'s list model run on all 2^n words.


def ref_Psi(op):
    """Empty-word coefficient of the operator's image of each basis word."""
    algebra = op.owner
    coeff = algebra.coeff
    table = {}
    for w in algebra.basis_words():
        img = op.apply(algebra.element({w: coeff.one()}))
        table[w] = img.terms.get((), coeff.zero())
    return kronecker_dual(algebra, table)


def ref_Delta(algebra, indices):
    """The signed list model of ``Delta`` on every basis word."""
    coeff = algebra.coeff
    table = {}
    for w in algebra.basis_words():
        remaining = list(w)
        sign = 1
        for i in reversed(indices):
            if i not in remaining:
                break
            t = remaining.index(i)
            if t % 2:
                sign = -sign
            remaining.pop(t)
        else:
            if not remaining:
                table[w] = coeff.one() if sign > 0 else coeff.neg(coeff.one())
    return kronecker_dual(algebra, table)


def _check_dual_routes(ext, rng, values):
    """Compare ``duality_square_commutes``, the theta(s) matrices, ``Psi``
    and ``Delta`` with their references on ``ext``; return how many
    ``Psi`` and ``Delta`` values were zero and nonzero."""
    n = ext.n
    basis = ext.basis_words()
    assert duality_square_commutes(ext)
    for s in basis:
        ref = ref_compose([bockstein(ext, i) for i in s], ext)
        op = theta(ext, s)
        assert op.matrix == _sparse(ref), s
        assert Psi(op) == ref_Psi(ref) == ref_Delta(ext, s), s

    qs = [bockstein(ext, i) for i in range(n)]
    ops = list(qs)
    for _ in range(8):
        length = rng.randrange(4) if n else 0
        ops.append(compose([rng.choice(qs) for _ in range(length)], owner=ext))
        ops.append(_random_sparse_operator(ext, rng, values))
    outcomes = [0, 0]
    for op in ops:
        f = Psi(op)
        assert f == ref_Psi(op)
        outcomes[f.is_zero()] += 1

    # unordered, repeated and out-of-range symbols, and every basis word in
    # a shuffled order
    tuples = [tuple(rng.sample(w, len(w))) for w in basis]
    for _ in range(12):
        tuples.append(tuple(rng.randrange(-1, n + 1) for _ in range(rng.randrange(n + 2))))
    for indices in tuples:
        f = Delta(ext, indices)
        assert f == ref_Delta(ext, indices), indices
        outcomes[f.is_zero()] += 1
    return outcomes


ROUTE_BASES = {**ORACLE_BASES, "Z_(2)": BaseRing.integers_localized(2)}


@pytest.mark.parametrize("base_name", sorted(ROUTE_BASES))
def test_dual_routes_match_apply_every_word_oracles(base_name):
    """Seeded, at ranks 0-5: the duality square, the theta(s) matrices,
    ``Psi`` on Q_i composites and random sparse operators, and ``Delta`` on
    seeded index tuples all match their references."""
    base = ROUTE_BASES[base_name]
    rng = random.Random("dual-routes:%s" % base_name)
    values = [0, 0, 1, -1, 2, -2, 3]
    nonzero = zero = 0
    for n in range(6):
        ext = CliffordAlgebra.from_scalars(base, [0] * n)
        a, b = _check_dual_routes(ext, rng, values)
        nonzero += a
        zero += b
    # both outcomes occur, so neither an empty nor a constant table passes
    assert nonzero and zero


def test_dual_routes_match_oracles_on_graded_coefficients(k2_p3):
    ring, _, ext = k2_p3
    rng = random.Random("dual-routes:k2_p3")
    values = [0, 1, -1, 2, ring.var("v2"), ring.var("v1") + ring.var("v2")]
    nonzero, zero = _check_dual_routes(ext, rng, values)
    assert nonzero and zero


def test_generator_checks_apply_no_generator(monkeypatch):
    """At rank 5 neither ``generator_checks`` nor ``theta_rank`` applies a
    Q_i or builds an operator matrix: the Leibniz and generator-word
    certificates, the rank and ``duality_square_commutes`` all read the
    Q_i's signed word maps.  A derivations, cohomology or scenario job
    applies no Q_i either, and builds each of its n Q_i once."""
    from regquot.cli import run_job
    from regquot.jobio import canonical_json, parse_job

    n = 5
    ext = CliffordAlgebra.from_scalars(BaseRing.integers(), [0] * n)
    calls, built, made = [], [], []
    apply, real = DerivationOperator.apply, derivations_module.operator_matrix
    real_bockstein = derivations_module.bockstein

    def counted(self, elem):
        calls.append(1)
        return apply(self, elem)

    monkeypatch.setattr(DerivationOperator, "apply", counted)
    monkeypatch.setattr(
        derivations_module, "operator_matrix", lambda *a: built.append(1) or real(*a)
    )
    monkeypatch.setattr(
        derivations_module, "bockstein", lambda *a: made.append(a[1]) or real_bockstein(*a)
    )
    assert theta_rank(ext) == 2**n
    qs, leibniz, certified, rank = generator_checks(ext)
    assert leibniz == [True] * n and certified and rank == 2**n
    assert duality_square_commutes(ext)
    assert duality_square_commutes(ext, qs)
    assert all(leibniz_check(q) for q in qs)
    assert not calls and not built
    names = ["x%d" % i for i in range(1, n + 1)]
    ring = {"base": "F2", "generators": [{"name": x, "degree": 2} for x in names]}
    docs = [
        {"command": c, "ring": ring, "window": {"degree": 4}, "sequence": names}
        for c in ("derivations", "cohomology")
    ]
    docs.append({"command": "scenario", "scenario": {"p": 2, "n": 3}})
    for doc, rank in zip(docs, (n, n, 3)):
        made.clear()
        assert run_job(parse_job(canonical_json(doc))).status == 0
        assert sorted(made) == list(range(rank))
    assert not calls and not built


def test_derivations_and_cohomology_jobs_build_no_operator_matrix(monkeypatch):
    """Neither a derivations nor a cohomology job builds a Q_i matrix: the
    squares and anticommutators are certified on the Q_i's signed word
    maps, which the Leibniz, rank and duality checks read too."""
    from regquot.cli import run_job
    from regquot.jobio import canonical_json, parse_job

    built = []
    real = derivations_module.operator_matrix

    def counted(algebra, fn):
        built.append(fn)
        return real(algebra, fn)

    monkeypatch.setattr(derivations_module, "operator_matrix", counted)
    n = 4
    names = ["x%d" % i for i in range(1, n + 1)]
    doc = {
        "command": "derivations",
        "ring": {"base": "F2", "generators": [{"name": x, "degree": 2} for x in names]},
        "window": {"degree": 4},
        "sequence": names,
    }
    report = run_job(parse_job(canonical_json(doc)))
    assert report.status == 0 and report.results["duality_square"]
    assert all(report.results["leibniz"])
    assert len(built) == 0
    doc["command"] = "cohomology"
    report = run_job(parse_job(canonical_json(doc)))
    assert report.status == 0
    assert len(built) == 0


def test_derivations_job_checks_leibniz_once_per_generator(monkeypatch):
    """A rank-4 derivations job runs ``leibniz_check`` once on each Q_i:
    the report reads the answers ``generator_checks`` certified on."""
    import regquot.cli as cli_module
    from regquot.cli import run_job
    from regquot.jobio import canonical_json, parse_job

    checked = []
    real = derivations_module.leibniz_check

    def counted(op):
        checked.append(op.label)
        return real(op)

    monkeypatch.setattr(derivations_module, "leibniz_check", counted)
    monkeypatch.setattr(cli_module, "leibniz_check", counted, raising=False)
    n = 4
    names = ["x%d" % i for i in range(1, n + 1)]
    doc = {
        "command": "derivations",
        "ring": {"base": "F2", "generators": [{"name": x, "degree": 2} for x in names]},
        "window": {"degree": 4},
        "sequence": names,
    }
    report = run_job(parse_job(canonical_json(doc)))
    assert report.status == 0 and report.results["leibniz"] == [True] * n
    assert checked == list(range(n))


def _plant_signs(monkeypatch, fault):
    """Replace each Q_i's signed word map m by ``fault(i, m)``."""
    real = DerivationOperator.__dict__["signs"].func
    monkeypatch.setattr(
        DerivationOperator, "signs", property(lambda self: fault(self.label, real(self)))
    )


def _unsigned(i, signs):
    return {w: (u, 1) for w, (u, _) in signs.items()}


def test_generator_certificates_read_the_signed_maps(monkeypatch):
    """Q_i's signed word map without the sign of a_i's position is not a
    derivation over Z: it sends a_0 a_1 to a_0 under Q_1, where the row
    Q_1(a_0)a_1 - a_0 Q_1(a_1) gives -a_0.  ``generator_checks`` checks the
    maps it certifies on, so over Z Q_1 and Q_2 fail Leibniz and nothing is
    certified; Q_0, whose letter always comes first, keeps its signs.  Over
    F_2, where -1 = 1, the maps are right."""
    _plant_signs(monkeypatch, _unsigned)
    for base, holds in ((BaseRing.integers(), False), (BaseRing.prime_field(2), True)):
        ext = CliffordAlgebra.from_scalars(base, [0, 0, 0])
        _, leibniz, certified, rank = generator_checks(ext)
        assert (leibniz, certified, rank) == ([True, holds, holds], holds, 8)


def _drops_a0_too(i, signs):
    # Q_2 also deletes a_0: a_0 a_2 goes to 1, so the strip of s = a_0 a_2
    # finds no key 1 in Q_0's map
    if i != 2:
        return signs
    return {w: (tuple(x for x in u if x), s) for w, (u, s) in signs.items()}


def _keeps_a1(i, signs):
    # Q_1 sends each word to itself: the strip of s = a_1 ends on a_1
    return {w: (w, s) for w, (u, s) in signs.items()} if i == 1 else signs


@pytest.mark.parametrize("fault", [_unsigned, _drops_a0_too, _keeps_a1])
def test_duality_square_refutes_planted_signed_maps(fault, monkeypatch):
    """Over Z at rank 3 each planted fault in the Q_i's signed word maps,
    one missing the position signs, one deleting a second letter and one
    with a wrong target word, makes the one-word duality strips answer
    False without raising.  Over F_2 the unsigned maps are right and pass."""
    _plant_signs(monkeypatch, fault)
    ext = CliffordAlgebra.from_scalars(BaseRing.integers(), [0, 0, 0])
    assert duality_square_commutes(ext) is False
    f2 = CliffordAlgebra.from_scalars(BaseRing.prime_field(2), [0, 0, 0])
    assert duality_square_commutes(f2) is (fault is _unsigned)


def _certificates_match_full_matrices(ext, rng):
    """``generator_checks`` and ``duality_square_commutes`` on ``ext``
    against full-matrix compares and the dense ``ref_compose`` route."""
    n = ext.n
    qs, leibniz, certified, rank = generator_checks(ext)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    assert leibniz == [True] * n
    assert certified == all(compose([q, q]).is_zero() for q in qs)
    assert certified == all(ref_compose([q, q], ext).is_zero() for q in qs)
    assert certified == all(
        compose([qs[i], qs[j]]) == compose([qs[j], qs[i]]).negated() for i, j in pairs
    )
    assert certified == all(
        ref_compose([qs[i], qs[j]], ext) == ref_compose([qs[j], qs[i]], ext).negated()
        for i, j in pairs
    )
    assert rank == ref_theta_rank(ext)
    basis = ext.basis_words()
    dense = all(
        ref_Psi(ref_compose([qs[i] for i in s], ext)) == ref_Delta(ext, s) for s in basis
    )
    assert duality_square_commutes(ext, qs) == duality_square_commutes(ext) == dense
    # seeded Q-words, repeated letters included, against the dense tables:
    # the matrix and the negated matrix, sign by sign
    last = None
    for _ in range(6):
        word = [rng.randrange(n) for _ in range(rng.randrange(4))] if n else []
        op = compose([qs[i] for i in word], owner=ext)
        ref = ref_compose([qs[i] for i in word], ext)
        assert op.matrix == _sparse(ref)
        assert op.negated().matrix == _sparse(ref.negated())
        assert (op == op.negated()) == (ref == ref.negated())
        if last is not None:
            assert (op == last[0]) == (ref == last[1])
            assert (op == last[0].negated()) == (ref == last[1].negated())
        last = op, ref
    return certified and rank == 2**n and dense


CERTIFICATE_BASES = {**ROUTE_BASES, "F2": BaseRing.prime_field(2)}


@pytest.mark.parametrize("base_name", sorted(CERTIFICATE_BASES))
def test_generator_certificates_match_full_matrix_oracle(base_name):
    """Seeded, at ranks 0-5 over Z, F_3, Z/4 and Z_(2), where -1 != 1 (or 2
    is a zero divisor), and over F_2, where signed maps must treat -1 as
    1: the squares, anticommute, rank and duality answers decided on
    generator words and signed maps equal those of the full matrices, and
    so do the Q-words and their equalities."""
    rng = random.Random("certificates:%s" % base_name)
    for n in range(6):
        ext = CliffordAlgebra.from_scalars(CERTIFICATE_BASES[base_name], [0] * n)
        assert _certificates_match_full_matrices(ext, rng)


def test_generator_certificates_match_oracle_on_graded_coefficients(k2_p3):
    _, _, ext = k2_p3
    assert _certificates_match_full_matrices(ext, random.Random("certificates:k2_p3"))
