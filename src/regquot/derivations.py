"""Odd derivations of exterior algebras and the operator-level cohomology.

A derivation is determined by its coefficient values on the generators,
its ``images``; on a basis word it acts as a signed partial derivative.
Its Kronecker dual is ``Psi``.  Compositions of the generator derivations
Q_i give the operator model of cohomology, checked against the dual-word
route ``Delta`` on every basis word and rendered by ``presentation_of``.

An operator is a sparse matrix: a dict from each basis word with a nonzero
image to the terms of that image.  Each Q_i also keeps its signed word map
``word -> (word, sign)``; the checks read them, deciding each identity
from at most n 2^n lookups and sign products, as proved in its docstring.
"""
from __future__ import annotations

from functools import cached_property

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
    SemanticError,
)


def _require_exterior(algebra) -> None:
    if not isinstance(algebra, CliffordAlgebra) or not algebra.is_exterior():
        raise NotExterior("operator needs an exterior owner (zero form)")


class DerivationOperator:
    """Odd derivation sending each generator to a coefficient multiple of 1;
    ``support`` pairs each generator whose image is nonzero with it.

    ``matrix`` is its sparse matrix, in the form ``CohomologyOperator``
    stores, and ``signs`` its signed word map when it has one; each is
    built once, on first read, and no caller may change it.
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

    @cached_property
    def signs(self):
        """Signed word map of the zero derivation, or of the one with image
        1 at a single generator a_i: each word holding a_i goes to the word
        without it, with sign -1 where a_i sits at an odd position.  None
        for any other."""
        if not self.support:
            return {}
        (i, c), *more = self.support
        if more or c != self.owner.coeff.one():
            return None
        return {
            w: (w[:t] + w[t + 1 :], -1 if t % 2 else 1)
            for w in self.owner.basis_words() if i in w for t in [w.index(i)]
        }

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


def _unit(coeff):
    """The coefficient of each sign of a signed word map."""
    one = coeff.one()
    return {1: one, -1: coeff.neg(one)}


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


def compose(ops, owner: CliffordAlgebra | None = None) -> CohomologyOperator:
    """The composition; the rightmost operator acts first.

    Folded from the right by applying each operator's cached matrix to the
    rows so far.  A one-operator composition shares that operator's
    read-only matrix.
    """
    ops = list(ops)
    if not ops:
        if owner is None:
            raise SemanticError("empty composition needs an explicit owner")
        _require_exterior(owner)
        one = owner.coeff.one()
        rows = {w: {w: one} for w in owner.basis_words()}
        return CohomologyOperator(owner, rows, word=())
    first, last = ops[0], ops[-1]
    for op in ops:
        if not isinstance(op, DerivationOperator):
            raise SemanticError("compose expects derivation operators")
        if op.owner != first.owner:
            raise MixedOwners("operators acting on different algebras")
    if owner is not None and owner != first.owner:
        raise MixedOwners("owner does not match the operators")
    labels = [op.label for op in ops]
    word = tuple(labels) if all(l is not None for l in labels) else None
    matrix, owner = last.matrix, first.owner
    for op in reversed(ops[:-1]):
        step = CohomologyOperator(owner, op.matrix, parity=1).apply
        rows = ((w, step(CliffordElement(owner, row)).terms) for w, row in matrix.items())
        matrix = {w: row for w, row in rows if row}
    return CohomologyOperator(owner, matrix, word=word, parity=len(ops) % 2)


def theta(algebra: CliffordAlgebra, indices) -> CohomologyOperator:
    """The operator of a formal exterior word in the generator derivations."""
    return compose([bockstein(algebra, i) for i in indices], owner=algebra)


def _walk(qs, s, w):
    """Q_{s_0} ... Q_{s_{k-1}} applied to the word w through the signed maps
    of ``qs``, rightmost first: ``(word, sign)``, or None when a map misses."""
    sign = 1
    for i in reversed(s):
        if (hit := qs[i].signs.get(w)) is None:
            return None
        w, sign = hit[0], sign * hit[1]
    return w, sign


def _theta_count(algebra, qs) -> int:
    """``theta_rank`` read off the signed maps of ``qs``."""
    top = tuple(range(algebra.n))
    reached = {hit[0] for s in algebra.basis_words() if (hit := _walk(qs, s, top))}
    return len(reached) if algebra.coeff.one() else 0


def theta_rank(algebra: CliffordAlgebra) -> int:
    """Rank of the image of the formal exterior algebra in operators.

    Through the Q_i's signed maps, theta(s) sends the top word to a unit
    multiple of one word or to zero, and images at distinct words are
    independent: the distinct words reached over all basis words s certify
    the rank, 2^n when injective, and 0 when the coefficient ``one`` is 0.
    """
    _require_exterior(algebra)
    return _theta_count(algebra, [bockstein(algebra, i) for i in range(algebra.n)])


def generator_checks(ext: CliffordAlgebra):
    """``(qs, leibniz, certified, theta_rank)`` for the generator
    derivations Q_i of ``ext``: each Q_i's ``leibniz_check``, whether
    Q_i^2 = 0 and Q_iQ_j = -Q_jQ_i are certified, and the rank of the
    formal-word map, 2^n when it is injective.

    For odd derivations D and E, D^2 and DE + ED are derivations in every
    characteristic: the cross terms of D^2(xy), and of DE(xy) + ED(xy),
    cancel.  A derivation killing 1 and every a_k is zero.  So once each
    Q_i's signed word map passes ``leibniz_check``, D(E(a_k)) = 0 for all
    D, E among the Q_i and all k, read off the same maps, certifies both
    identities.  The rank is counted on them too; nothing is applied.
    """
    qs = [bockstein(ext, i) for i in range(ext.n)]
    leibniz = [leibniz_check(q) for q in qs]
    hits = [hit for e in qs for k in range(ext.n) if (hit := e.signs.get((k,)))]
    certified = all(leibniz) and not any(d.signs.get(u) for u, _ in hits for d in qs)
    return qs, leibniz, certified, _theta_count(ext, qs)


def leibniz_check(op) -> bool:
    """Signed Leibniz identity D(uv) = D(u)v + e^|u| uD(v), e = (-1)^|D|,
    on all basis words, decided by D(1) = 0, one row per word and relations.

    With L(i, j) = D(a_i)a_j + e a_i D(a_j), the row of w = a_i w', i its
    first letter, is D(w) = D(a_i)w' + e a_i D(w'), and the relations are
    L(i, i) = 0 and L(i, j) + L(j, i) = 0 for i < j.  A derivation passes
    them.  They suffice: E(x_1...x_k) = sum_t e^(t-1) x_1...D(x_t)...x_k,
    read in the algebra, is a derivation from the tensor algebra, and
    E(x r y) = e^|x| x E(r) y vanishes on the relators r = a_i a_i and
    a_i a_j + a_j a_i, since E(r) is L(i, i) or L(i, j) + L(j, i).  So E
    is a derivation of the exterior algebra agreeing with D on the a_i, and
    the rows give E = D by induction on length.  Rows alone do not suffice:
    over Z, the odd operator a_0 -> a_1 passes every row, but
    L(0, 0) = -2 a_0 a_1.

    A derivation's signed word map (``DerivationOperator.signs``) sending
    each a_i to a signed 1 or to 0 meets the relations identically, and
    each row compares signed words, signs read as coefficients: D(a_i)w' is
    a signed w' and a_i D(w') a signed word holding i, so D(w) can match at
    most one.  Other operators run rows and relations as Clifford products.
    """
    algebra = op.owner
    n = algebra.n
    words = algebra.basis_words()
    signs = op.signs if isinstance(op, DerivationOperator) else None
    if signs is not None and () not in signs:
        gens = [signs.get((i,)) for i in range(n)]
        if all(g is None or not g[0] for g in gens):
            unit = _unit(algebra.coeff)
            for w in words[1:]:
                g, d, got = gens[w[0]], signs.get(w[1:]), signs.get(w)
                if g and d:
                    return False
                want = (w[1:], g[1]) if g else ((w[0],) + d[0], -d[1]) if d else None
                if got != want and not (
                    got and want and got[0] == want[0] and unit[got[1]] == unit[want[1]]
                ):
                    return False
            return True
    matrix = op.matrix
    if () in matrix:
        return False
    one = algebra.coeff.one()

    def word(w):
        return CliffordElement(algebra, {w: one})

    def image(w):
        return CliffordElement(algebra, matrix.get(w, {}))

    def expansion(i, v, dv):
        """D(a_i)v + e a_i D(v), the Leibniz expansion of D(a_i v)."""
        second = word((i,)) * dv
        return image((i,)) * v + (-second if op.parity % 2 else second)

    lead = [[expansion(i, word((j,)), image((j,))) for j in range(n)] for i in range(n)]
    for i in range(n):
        if not lead[i][i].is_zero():
            return False
        if any(not (lead[i][j] + lead[j][i]).is_zero() for j in range(i + 1, n)):
            return False
    return all(image(w) == expansion(w[0], word(w[1:]), image(w[1:])) for w in words[1:])


def cohomology_presentation(spec: QuotientRingSpec) -> AlgebraPresentation:
    """Exterior presentation on the generator derivations, verified.

    Leibniz, squares, anticommutators and the rank of the formal-word map
    are checked by ``generator_checks`` before the presentation is emitted.
    """
    module = conormal_module(spec)
    ext = CliffordAlgebra(module, zero_form(module))
    _, _, certified, rank = generator_checks(ext)
    if not certified:
        raise SemanticError("generator derivation does not square to zero")
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
    the empty-word entry of each row of ``op.matrix``."""
    algebra = op.owner
    _require_exterior(algebra)
    return DualFunctional(algebra, {w: row[()] for w, row in op.matrix.items() if () in row})


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
    return _delta(algebra, tuple(indices), _unit(algebra.coeff))


def _delta(algebra, indices, unit) -> DualFunctional:
    """``Delta`` on an algebra already known to be exterior, with ``unit``
    its ``_unit`` coefficients."""
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
    return DualFunctional(algebra, {w: unit[sign]})


def duality_square_commutes(algebra: CliffordAlgebra, qs=None) -> bool:
    """Psi(theta(s)) = Delta(s) for every basis word s, one walk per s.

    Each Q_i map deletes a_i, signed by its position, and kills every word
    without it, so theta(s) = Q_{s_0} ... Q_{s_{k-1}} sends a basis word to
    a multiple of 1 only if its letters are those of s: Psi(theta(s)) is
    supported on s alone.  Its value there, the sign of walking s through
    the maps rightmost letter first (n 2^(n-1) lookups in all), is compared
    with ``Delta(algebra, s)``; a walk that misses a key or ends on a
    nonempty word answers False.  ``qs`` are the Q_i of ``algebra``, as
    ``generator_checks`` returns them, or made here.
    """
    _require_exterior(algebra)
    if qs is None:
        qs = [bockstein(algebra, i) for i in range(algebra.n)]
    unit = _unit(algebra.coeff)
    for s in algebra.basis_words():
        hit = _walk(qs, s, s)
        if not hit or hit[0] or DualFunctional(algebra, {s: unit[hit[1]]}) != _delta(algebra, s, unit):
            return False
    return True
