"""Odd derivations of exterior algebras and the operator-level cohomology.

A derivation here is determined by its coefficient values on the
generators, its ``images``, and extends by the signed Leibniz rule; on a
basis word it acts as a signed partial derivative.  Its Kronecker dual is
``Psi``, the functional tabulated on the word basis.  Compositions of the
generator derivations give the operator model of cohomology, checked
against the dual-word route ``Delta`` on every basis word, and the
verified presentation is rendered by ``clifford.presentation_of``.  An
operator is stored as a sparse matrix: a dict from each basis word with a
nonzero image to the terms of that image.  A composite of the Q_i sends
each word to at most one signed word, so the matrix has at most 2^n
entries, not 4^n.

Each derivation builds its matrix once, on first read, by applying itself
to the 2^n basis words; a composite is the product of its factors'
matrices, and ``theta(s)`` in ``duality_square_commutes`` is Q_{s_0}'s
matrix times that of the shorter word ``theta(s[1:])``.  ``leibniz_check``
reads D(v) for each basis word v off the matrix too, and a derivations job
hands the Q_i of ``generator_checks`` to every later check, so each Q_i
builds its matrix once per job.  Every check still compares full matrices
or tables over all 2^n words.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .clifford import (
    AlgebraPresentation,
    CliffordAlgebra,
    CliffordElement,
    presentation_of,
)
from .conormal import QuotientRingSpec, conormal_module, zero_form
from .errors import (
    BadIndex,
    DegreeMismatch,
    MixedAlgebras,
    MixedOwners,
    NonHomogeneous,
    NotExterior,
    NotRegular,
    SemanticError,
)


def _require_exterior(algebra) -> None:
    if not isinstance(algebra, CliffordAlgebra) or not algebra.is_exterior():
        raise NotExterior("operator needs an exterior owner (zero form)")


class DerivationOperator:
    """Odd derivation sending each generator to a coefficient multiple of 1;
    ``support`` pairs each generator whose image is nonzero with it.

    ``matrix`` is its sparse matrix, in the form ``CohomologyOperator``
    stores, built once on first read.  A one-operator ``compose`` shares
    it, so no caller may change it.
    """

    parity = 1

    def __init__(self, owner: CliffordAlgebra, images, label=None):
        _require_exterior(owner)
        images = tuple(owner.coeff.coerce(v) for v in images)
        if len(images) != owner.n:
            raise SemanticError("one image per generator required")
        support = tuple((i, c) for i, c in enumerate(images) if c)
        degree = None
        if owner.degrees is not None:
            degs = set()
            for i, c in support:
                cd = owner.coeff.degree_of(c)
                if cd is None:
                    raise NonHomogeneous("derivation images must be homogeneous")
                degs.add(cd - owner.degrees[i])
            if len(degs) > 1:
                raise DegreeMismatch(
                    "generator images give inconsistent operator degrees %s"
                    % sorted(degs)
                )
            if degs:
                degree = degs.pop()
        self.owner = owner
        self.images = images
        self.support = support
        self.degree = degree
        self.label = label

    def apply(self, elem: CliffordElement) -> CliffordElement:
        if elem.owner != self.owner:
            raise MixedAlgebras("element of a different algebra")
        coeff = self.owner.coeff
        out: dict = {}
        for w, c in elem.terms.items():
            for i, ci in self.support:
                if i not in w:
                    continue
                t = w.index(i)
                val = coeff.mul(c, ci)
                if t % 2:
                    val = coeff.neg(val)
                word = w[:t] + w[t + 1 :]
                out[word] = coeff.add(out[word], val) if word in out else val
        return CliffordElement(self.owner, out)

    __call__ = apply

    @cached_property
    def matrix(self):
        return operator_matrix(self.owner, self.apply)

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other):
        if not isinstance(other, DerivationOperator) or other.owner != self.owner:
            raise MixedOwners("derivations of different algebras")
        coeff = self.owner.coeff
        return DerivationOperator(
            self.owner,
            [coeff.add(a, b) for a, b in zip(self.images, other.images)],
        )

    def __mul__(self, scale):
        coeff = self.owner.coeff
        scale = coeff.coerce(scale)
        return DerivationOperator(
            self.owner, [coeff.mul(c, scale) for c in self.images]
        )

    __rmul__ = __mul__

    def __neg__(self):
        coeff = self.owner.coeff
        return DerivationOperator(self.owner, [coeff.neg(c) for c in self.images])

    def __eq__(self, other):
        return (
            isinstance(other, DerivationOperator)
            and self.owner == other.owner
            and self.images == other.images
        )

    def __repr__(self):
        parts = ["%s*Q%d" % (self.owner.coeff.render(c), i) for i, c in self.support]
        return " + ".join(parts) if parts else "0"


def bockstein(algebra: CliffordAlgebra, i: int) -> DerivationOperator:
    """The partial derivative with respect to the i-th generator."""
    _require_exterior(algebra)
    if not isinstance(i, int) or not 0 <= i < algebra.n:
        raise BadIndex("generator index %r out of range" % (i,))
    images = [algebra.coeff.zero()] * algebra.n
    images[i] = algebra.coeff.one()
    return DerivationOperator(algebra, images, label=i)


def operator_matrix(algebra: CliffordAlgebra, fn):
    """Sparse matrix of a linear operator: each basis word with a nonzero
    image under ``fn``, mapped to the terms of that image."""
    one = algebra.coeff.one()
    rows = {}
    for w in algebra.basis_words():
        img = fn(CliffordElement(algebra, {w: one}))
        if img.terms:
            rows[w] = img.terms
    return rows


class CohomologyOperator:
    """Linear endo-operator stored as a sparse matrix, with a formal word tag.

    ``matrix`` maps each basis word with a nonzero image to that image's
    terms, a dict from word to nonzero coefficient; the words it omits map
    to zero, so the zero operator has the empty matrix.
    """

    def __init__(self, owner: CliffordAlgebra, matrix, word=None, parity=None):
        _require_exterior(owner)
        self.owner = owner
        self.matrix = matrix
        self.word = None if word is None else tuple(word)
        if parity is None:
            if self.word is None:
                raise SemanticError("parity required without a formal word")
            parity = len(self.word) % 2
        self.parity = parity

    def apply(self, elem: CliffordElement) -> CliffordElement:
        if elem.owner != self.owner:
            raise MixedAlgebras("element of a different algebra")
        coeff = self.owner.coeff
        out: dict = {}
        for w, c in elem.terms.items():
            for u, entry in self.matrix.get(w, {}).items():
                val = coeff.mul(c, entry)
                out[u] = coeff.add(out[u], val) if u in out else val
        return CliffordElement(self.owner, out)

    __call__ = apply

    def is_zero(self) -> bool:
        return not self.matrix

    def negated(self) -> "CohomologyOperator":
        neg = self.owner.coeff.neg
        rows = {
            w: {u: neg(c) for u, c in row.items()} for w, row in self.matrix.items()
        }
        return CohomologyOperator(self.owner, rows, word=None, parity=self.parity)

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyOperator)
            and self.owner == other.owner
            and self.matrix == other.matrix
        )

    def __repr__(self):
        tag = "?" if self.word is None else ",".join(str(i) for i in self.word)
        return "operator[%s]" % tag


def _product(left, right, coeff):
    """Sparse matrix of ``left`` after ``right``: each row of ``right`` sent
    through the rows of ``left``.  Sums that come to zero are dropped, and
    so are rows left empty, as ``operator_matrix`` drops them."""
    mul, add = coeff.mul, coeff.add
    rows = {}
    for w, row in right.items():
        out: dict = {}
        for u, c in row.items():
            image = left.get(u)
            if image is None:
                continue
            for v, d in image.items():
                val = mul(c, d)
                out[v] = add(out[v], val) if v in out else val
        out = {v: c for v, c in out.items() if c}
        if out:
            rows[w] = out
    return rows


def compose(ops, owner: CliffordAlgebra | None = None) -> CohomologyOperator:
    """Matrix of the composition; the rightmost operator acts first.

    The product of the operators' cached matrices, folded from the right:
    no operator is applied to the basis again once its matrix is built.
    A one-operator composition shares that operator's read-only matrix.
    """
    ops = list(ops)
    if not ops:
        if owner is None:
            raise SemanticError("empty composition needs an explicit owner")
        _require_exterior(owner)
        one = owner.coeff.one()
        rows = {w: {w: one} for w in owner.basis_words()}
        return CohomologyOperator(owner, rows, word=())
    first = ops[0]
    for op in ops:
        if not isinstance(op, DerivationOperator):
            raise SemanticError("compose expects derivation operators")
        if op.owner != first.owner:
            raise MixedOwners("operators acting on different algebras")
    if owner is not None and owner != first.owner:
        raise MixedOwners("owner does not match the operators")
    coeff = first.owner.coeff
    matrix = ops[-1].matrix
    for op in reversed(ops[:-1]):
        matrix = _product(op.matrix, matrix, coeff)
    labels = [op.label for op in ops]
    word = tuple(labels) if all(l is not None for l in labels) else None
    return CohomologyOperator(first.owner, matrix, word=word, parity=len(ops) % 2)


def theta(algebra: CliffordAlgebra, indices) -> CohomologyOperator:
    """The operator of a formal exterior word in the generator derivations."""
    return compose(
        [bockstein(algebra, i) for i in tuple(indices)], owner=algebra
    )


def theta_rank(algebra: CliffordAlgebra) -> int:
    """Rank of the image of the formal exterior algebra in operators.

    The generator derivations of each subset word are applied, rightmost
    first, to the top basis word; the results are unit multiples of
    pairwise distinct words, so counting the distinct unit-coefficient
    outputs certifies the rank.  The image for s is Q_{s_0} applied to the
    image for s[1:], which the loop reached first, since the basis words
    come by length: 2^n - 1 applications in all.
    """
    _require_exterior(algebra)
    coeff = algebra.coeff
    qs = [bockstein(algebra, i) for i in range(algebra.n)]
    images = {(): CliffordElement(algebra, {tuple(range(algebra.n)): coeff.one()})}
    units = (coeff.one(), coeff.neg(coeff.one()))
    seen = set()
    for s in algebra.basis_words():
        if s:
            images[s] = qs[s[0]].apply(images[s[1:]])
        img = images[s]
        if len(img.terms) == 1:
            (word, c), = img.terms.items()
            if c in units:
                seen.add(word)
    return len(seen)


def generator_checks(ext: CliffordAlgebra):
    """``(qs, squares_zero, anticommute, theta_rank)`` for the generator
    derivations Q_i of ``ext``: the formal-word map is injective when the
    rank is 2^n.

    Each Q_i applies itself to the 2^n basis words once, for its matrix;
    Q_i^2 and both orders of every pair are then matrix products, compared
    as full matrices.
    """
    qs = [bockstein(ext, i) for i in range(ext.n)]
    squares = all(compose([q, q]).is_zero() for q in qs)
    anti = all(
        compose([qs[i], qs[j]]) == compose([qs[j], qs[i]]).negated()
        for i, j in combinations(range(ext.n), 2)
    )
    return qs, squares, anti, theta_rank(ext)


def leibniz_check(op) -> bool:
    """Signed Leibniz identity D(uv) = D(u)v + (-1)^{|D||u|} uD(v) on
    basis words.

    u runs over 1 and the generators a_i and v over every basis word:
    (n+1)*2^n pairs, which decide the identity on all 4^n basis pairs.
    The pairs (1, v) give D(v) = D(1)v + D(v), so D(1) = 0 (take v = 1)
    and Leibniz holds for u = 1.  A basis word u of length k > 0 is a_i*w
    with i its first index and w the rest, a word of length k - 1.  D is
    linear and the product associative, and the identity for fixed u is
    linear in v, so if Leibniz holds for w and every v, then with
    e = (-1)^|D|:
      D(a_i*w*v) = D(a_i)wv + e a_i D(wv)          [(a_i, each word of wv)]
                 = D(a_i)wv + e a_i D(w)v + e^k a_i w D(v)   [Leibniz for w]
                 = D(a_i*w)v + e^k (a_i*w) D(v)                  [(a_i, w)]
    Induction on k covers every u.  Each D(v) is read off ``op.matrix``.
    """
    algebra = op.owner
    one = algebra.coeff.one()
    words = algebra.basis_words()
    basis = [CliffordElement(algebra, {w: one}) for w in words]
    images = [CliffordElement(algebra, op.matrix.get(w, {})) for w in words]
    for wu, u, du in zip(words[: algebra.n + 1], basis, images):
        odd = op.parity % 2 and len(wu) % 2
        for v, dv in zip(basis, images):
            second = u * dv
            if odd:
                second = -second
            if op.apply(u * v) != du * v + second:
                return False
    return True


def cohomology_presentation(spec: QuotientRingSpec) -> AlgebraPresentation:
    """Exterior presentation on the generator derivations, verified.

    Squares, anticommutators and the rank of the formal-word map are
    checked by ``generator_checks`` before the presentation is emitted.
    """
    if not spec.is_regular:
        raise NotRegular(
            "sequence not verified regular (fails at entry %s)"
            % (spec.regularity.first_failure,)
        )
    module = conormal_module(spec)
    ext = CliffordAlgebra(module, zero_form(module))
    _, squares, anti, rank = generator_checks(ext)
    if not squares:
        raise SemanticError("generator derivation does not square to zero")
    if not anti:
        raise SemanticError("generator derivations do not anticommute")
    if rank != 2 ** ext.n:
        raise SemanticError("formal word map is not injective")
    names = tuple("Q%d" % i for i in range(ext.n))
    degrees = tuple(-d for d in ext.degrees)
    return presentation_of(CliffordAlgebra._raw(ext.coeff, names, degrees, ext.q, {}))


# -- dual functionals -------------------------------------------------


class DualFunctional:
    """Coefficient-valued functional tabulated on the 2^n word basis.

    ``table`` maps word tuples to coefficients that ``owner.coeff.coerce``
    returns unchanged, and only its zero values are dropped: outside input
    goes through ``kronecker_dual``."""

    def __init__(self, owner: CliffordAlgebra, table):
        self.owner = owner
        self.table = {w: c for w, c in table.items() if c}

    def value(self, word):
        return self.table.get(tuple(word), self.owner.coeff.zero())

    def support(self):
        return tuple(sorted(self.table, key=lambda w: (len(w), w)))

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other):
        return (
            isinstance(other, DualFunctional)
            and self.owner == other.owner
            and self.table == other.table
        )

    def __repr__(self):
        if not self.table:
            return "0"
        coeff = self.owner.coeff
        parts = []
        for w in self.support():
            name = "".join("a%d" % i for i in w) if w else "1"
            parts.append("<%s> -> %s" % (name, coeff.render(self.table[w])))
        return "; ".join(parts)


def kronecker_dual(algebra: CliffordAlgebra, mapping) -> DualFunctional:
    """Tabulate a coefficient-valued map on the word basis: the entry point
    that checks each word and coerces each value."""
    _require_exterior(algebra)
    word, coerce = algebra.checked_word, algebra.coeff.coerce
    return DualFunctional(algebra, {word(w): coerce(c) for w, c in dict(mapping).items()})


def Psi(op) -> DualFunctional:
    """Project an operator to its empty-word component on each basis word:
    the entry at the empty word of each row of ``op.matrix``."""
    algebra = op.owner
    _require_exterior(algebra)
    return DualFunctional(
        algebra, {w: row[()] for w, row in op.matrix.items() if () in row}
    )


def Delta(algebra: CliffordAlgebra, indices) -> DualFunctional:
    """Functional of a dual exterior word, by direct signed expansion.

    Computed on a list model of the words, independent of the operator
    matrices: the rightmost symbol strips its letter first and each strip
    contributes the parity sign of the letter's position.  A basis word
    survives only if every strip finds its letter and nothing is left, so
    its letters are exactly the symbols, each once.  The basis word of the
    in-range symbols is therefore the only candidate, and the model runs
    on it alone; with a repeated or out-of-range symbol a strip misses and
    the functional is zero.
    """
    _require_exterior(algebra)
    indices = tuple(indices)
    coeff = algebra.coeff
    w = tuple(i for i in range(algebra.n) if i in indices)
    remaining = list(w)
    sign = 1
    for i in reversed(indices):
        if i not in remaining:
            return DualFunctional(algebra, {})
        t = remaining.index(i)
        if t % 2:
            sign = -sign
        remaining.pop(t)
    one = coeff.one()
    return DualFunctional(algebra, {w: one if sign > 0 else coeff.neg(one)})


def duality_square_commutes(algebra: CliffordAlgebra, qs=None) -> bool:
    """Compare the operator route with the dual-word route on all words.

    ``theta(s)`` is built as Q_{s_0}'s matrix times the matrix of
    ``theta(s[1:])``, which the loop reached first, since the basis words
    come by length.  ``qs`` are the generator derivations Q_i of
    ``algebra``, as ``generator_checks`` returns them with their matrices
    built; without them each Q_i is made here and applies itself to the
    basis once, for its matrix.  ``Psi`` and ``Delta`` then compare full
    tables over all 2^n words.
    """
    _require_exterior(algebra)
    if qs is None:
        qs = [bockstein(algebra, i) for i in range(algebra.n)]
    coeff = algebra.coeff
    thetas = {(): compose([], owner=algebra)}
    for s in algebra.basis_words():
        if s:
            matrix = _product(qs[s[0]].matrix, thetas[s[1:]].matrix, coeff)
            thetas[s] = CohomologyOperator(algebra, matrix, word=s)
        if Psi(thetas[s]) != Delta(algebra, s):
            return False
    return True
