"""Clifford algebra arithmetic over graded or plain coefficient rings.

Elements are kept in normal form on the basis of strictly increasing index
words.  Multiplication inserts generators one at a time: a repeated index
contracts to the quadratic value, and moving a generator past a larger one
swaps with a sign and adds the polarized cross term.  Coefficients are
treated as central.

An algebra's ``coeff`` is its coefficient ring itself: the ``BaseRing``
of an ungraded algebra, or the ``QuotientRing`` R/I of the conormal
module, which memoizes its sums, products and negatives.  Every
coefficient the ring returns is a normalized ``int`` or ``Fraction`` or a
reduced residue, so a reduced coefficient is zero exactly when it is
falsy, and the algebra tests it so.  ``BruteForceModel`` alone calls the
ring's ``is_zero``, which normalizes or reduces first.  Basis-word
products are memoized per algebra.

Past the algebra and its elements the module holds what the commands
report or run: presentations, ``antipode``, and the induced maps of the
naturality suite.  ``BruteForceModel`` is the independent oracle for the
products.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .conormal import (
    BilinearFormData,
    ConormalModule,
    QuotientRingSpec,
    base_change_form,
    characteristic_form_diagonal,
)
from .errors import (
    BadIndex,
    BoundTooSmall,
    MixedAlgebras,
    MixedCoefficients,
    NotCompatible,
    SemanticError,
)
from .ring import RingElement
from .scalars import BaseRing


class CliffordAlgebra:
    """Normal-form Clifford algebra on n odd generators."""

    def __init__(self, module: ConormalModule, form: BilinearFormData):
        if not isinstance(form, BilinearFormData) or form.module != module:
            raise SemanticError("form does not belong to the module")
        n = module.rank
        q = tuple(form.quadratic(i) for i in range(n))
        s = {}
        for i in range(n):
            for j in range(i + 1, n):
                val = form.polarized(i, j)
                if val:
                    s[(i, j)] = val
        self._init_raw(
            module.coefficients,
            tuple("a%d" % i for i in range(n)),
            module.degrees,
            q,
            s,
            module,
            form,
        )

    @classmethod
    def from_scalars(cls, base: BaseRing, diagonal, cross=None, names=None):
        """Ungraded algebra from a diagonal (and optional cross terms)."""
        self = cls.__new__(cls)
        q = tuple(base.coerce(v) for v in diagonal)
        n = len(q)
        s = {}
        if cross:
            for (i, j), v in dict(cross).items():
                if not (0 <= i < j < n):
                    raise BadIndex("cross term index out of range")
                v = base.coerce(v)
                if v:
                    s[(i, j)] = v
        if names is None:
            names = tuple("a%d" % i for i in range(n))
        self._init_raw(base, tuple(names), None, q, s, None, None)
        return self

    @classmethod
    def _raw(cls, coeff, names, degrees, q, s):
        self = cls.__new__(cls)
        self._init_raw(coeff, names, degrees, q, s, None, None)
        return self

    def _init_raw(self, coeff, names, degrees, q, s, module, form):
        self.coeff = coeff
        self.names = names
        self.degrees = degrees
        self.q = q
        self.s = dict(s)
        self.module = module
        self.form = form
        self.n = len(names)
        self._icache: dict = {}
        self._wcache: dict = {}
        self._words = None

    # -- identity -----------------------------------------------------

    def _key(self):
        return (
            self.coeff,
            self.names,
            self.degrees,
            self.q,
            tuple(sorted(self.s.items(), key=lambda kv: kv[0])),
        )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CliffordAlgebra) and self._key() == other._key()
        )

    def __hash__(self):
        return hash(("clifford", self.names, self.degrees))

    def __repr__(self):
        return "Cl(%s)" % (", ".join(self.names),)

    # -- structure ----------------------------------------------------

    def is_exterior(self) -> bool:
        return not self.s and not any(self.q)

    def s_value(self, i: int, j: int):
        if i == j:
            raise BadIndex("cross term needs two distinct indices")
        key = (i, j) if i < j else (j, i)
        return self.s.get(key, self.coeff.zero())

    def basis_words(self):
        """All strictly increasing index words, by length, then
        lexicographically: one tuple, built on first read."""
        if self._words is None:
            self._words = tuple(w for k in range(self.n + 1) for w in combinations(range(self.n), k))
        return self._words

    def generator_degree(self, i: int) -> int | None:
        return None if self.degrees is None else self.degrees[i]

    def word_degree(self, word) -> int | None:
        if self.degrees is None:
            return None
        return sum(self.degrees[i] for i in word)

    # -- element constructors -----------------------------------------

    def checked_word(self, word) -> tuple:
        """``word`` as a tuple, if it is strictly increasing and in range."""
        word = tuple(word)
        if any(not isinstance(i, int) or not 0 <= i < self.n for i in word):
            raise BadIndex("word index out of range")
        if list(word) != sorted(set(word)):
            raise SemanticError("words must be strictly increasing")
        return word

    def element(self, terms) -> "CliffordElement":
        """The element with the ``{word: coefficient}`` terms given: the
        entry point that checks each word and coerces each coefficient."""
        coerce = self.coeff.coerce
        return CliffordElement(
            self, {self.checked_word(w): coerce(c) for w, c in dict(terms).items()}
        )

    def zero(self) -> "CliffordElement":
        return CliffordElement(self, {})

    def one(self) -> "CliffordElement":
        return CliffordElement(self, {(): self.coeff.one()})

    def scalar(self, v) -> "CliffordElement":
        return CliffordElement(self, {(): self.coeff.coerce(v)})

    def generator(self, i: int) -> "CliffordElement":
        return CliffordElement(self, {self.checked_word((i,)): self.coeff.one()})

    def phi(self, x: RingElement) -> "CliffordElement":
        """Characteristic map: the class of x in I/I² written on the basis."""
        if self.module is None:
            raise SemanticError("algebra carries no conormal module")
        coords = self.module.residue_coordinates(x)
        return CliffordElement(self, {(i,): c for i, c in enumerate(coords)})

    # -- multiplication core ------------------------------------------

    def _insert(self, w, j):
        """Normal form of (word w)·a_j as a list of (word, coefficient)."""
        key = (w, j)
        hit = self._icache.get(key)
        if hit is not None:
            return hit
        coeff = self.coeff
        if not w:
            res = (((j,), coeff.one()),)
        else:
            last = w[-1]
            rest = w[:-1]
            if last < j:
                res = ((w + (j,), coeff.one()),)
            elif last == j:
                res = ((rest, self.q[j]),) if self.q[j] else ()
            else:
                acc: dict = {}
                for u, c in self._insert(rest, j):
                    word = u + (last,)
                    acc[word] = coeff.add(acc.get(word, coeff.zero()), coeff.neg(c))
                sval = self.s_value(j, last)
                if sval:
                    acc[rest] = coeff.add(acc.get(rest, coeff.zero()), sval)
                res = tuple((u, c) for u, c in acc.items() if c)
        self._icache[key] = res
        return res

    def word_product(self, w1, w2):
        """Product of two basis words as a word-to-coefficient mapping,
        computed once per pair; callers only read it."""
        key = (w1, w2)
        hit = self._wcache.get(key)
        if hit is not None:
            return hit
        coeff = self.coeff
        terms = {w1: coeff.one()}
        for j in w2:
            nxt: dict = {}
            for w, c in terms.items():
                for u, d in self._insert(w, j):
                    val = coeff.mul(c, d)
                    if val:
                        nxt[u] = coeff.add(nxt.get(u, coeff.zero()), val)
            terms = {w: c for w, c in nxt.items() if c}
        self._wcache[key] = terms
        return terms


class CliffordElement:
    """Finite sum of coefficients times strictly increasing index words.

    ``terms`` maps words that ``owner.checked_word`` returns unchanged to
    coefficients that ``owner.coeff.coerce`` returns unchanged, and only
    its zero coefficients are dropped: outside input goes through
    ``CliffordAlgebra.element``."""

    __slots__ = ("owner", "terms")

    def __init__(self, owner: CliffordAlgebra, terms):
        self.owner = owner
        self.terms = {w: c for w, c in terms.items() if c}

    # -- helpers ------------------------------------------------------

    def _same(self, other):
        if self.owner != other.owner:
            raise MixedAlgebras("elements of different Clifford algebras")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word):
        return self.terms.get(tuple(word), self.owner.coeff.zero())

    def degree(self):
        """Total degree in graded mode; None for zero or ungraded owners."""
        if self.owner.degrees is None or not self.terms:
            return None
        degs = set()
        for w, c in self.terms.items():
            cd = self.owner.coeff.degree_of(c)
            if cd is None:
                return None
            degs.add(cd + self.owner.word_degree(w))
        if len(degs) != 1:
            return None
        return degs.pop()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_element(self.owner, other)
        self._same(other)
        coeff = self.owner.coeff
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = coeff.add(out.get(w, coeff.zero()), c)
        return CliffordElement(self.owner, out)

    __radd__ = __add__

    def __neg__(self):
        coeff = self.owner.coeff
        return CliffordElement(
            self.owner, {w: coeff.neg(c) for w, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-_as_element(self.owner, other))

    def __rsub__(self, other):
        return _as_element(self.owner, other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            try:
                scale = self.owner.coeff.coerce(other)
            except SemanticError:
                return NotImplemented
            coeff = self.owner.coeff
            return CliffordElement(
                self.owner, {w: coeff.mul(c, scale) for w, c in self.terms.items()}
            )
        self._same(other)
        coeff = self.owner.coeff
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c12 = coeff.mul(c1, c2)
                if not c12:
                    continue
                for w, c in self.owner.word_product(w1, w2).items():
                    val = coeff.mul(c12, c)
                    if val:
                        out[w] = coeff.add(out.get(w, coeff.zero()), val)
        return CliffordElement(self.owner, out)

    def __rmul__(self, other):
        # coefficients are central, so scaling commutes
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SemanticError("powers must be non-negative integers")
        out = self.owner.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            try:
                other = _as_element(self.owner, other)
            except (SemanticError, MixedAlgebras):
                return NotImplemented
        if self.owner != other.owner:
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.owner.names, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        coeff = self.owner.coeff
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            word = "*".join(self.owner.names[i] for i in w) if w else "1"
            cs = coeff.render(c)
            parts.append(word if cs == "1" else "%s*%s" % (_render_value(coeff, c), word))
        return " + ".join(parts)


def _as_element(owner, v):
    if isinstance(v, CliffordElement):
        return v
    return owner.scalar(v)


def antipode(u: CliffordElement) -> CliffordElement:
    """The algebra automorphism negating every generator."""
    coeff = u.owner.coeff
    out = {}
    for w, c in u.terms.items():
        out[w] = coeff.neg(c) if len(w) % 2 else c
    return CliffordElement(u.owner, out)


# -- presentations ----------------------------------------------------


class AlgebraPresentation(NamedTuple):
    kind: str  # exterior | clifford
    generators: tuple  # (name, degree-or-None) pairs
    relations: tuple  # rendered strings
    display: str
    warnings: tuple = ()


def _render_value(coeff, v) -> str:
    s = coeff.render(v)
    if any(ch in s for ch in " +-") and not s.lstrip("-").isdigit():
        return "(%s)" % s
    return s


def presentation_of(algebra: CliffordAlgebra, warnings=()) -> AlgebraPresentation:
    coeff = algebra.coeff
    rels = []
    for i in range(algebra.n):
        name = algebra.names[i]
        if not algebra.q[i]:
            rels.append("%s^2" % name)
        else:
            rels.append("%s^2 - %s*1" % (name, _render_value(coeff, algebra.q[i])))
    for i in range(algebra.n):
        for j in range(i + 1, algebra.n):
            lhs = "%s*%s + %s*%s" % (
                algebra.names[i],
                algebra.names[j],
                algebra.names[j],
                algebra.names[i],
            )
            sval = algebra.s_value(i, j)
            if not sval:
                rels.append(lhs)
            else:
                rels.append("%s - %s*1" % (lhs, _render_value(coeff, sval)))
    gens = tuple(
        (algebra.names[i], algebra.generator_degree(i)) for i in range(algebra.n)
    )
    if algebra.is_exterior():
        kind = "exterior"
        display = "Lambda(%s)" % ", ".join(algebra.names)
    else:
        kind = "clifford"
        plain = [i for i in range(algebra.n) if not algebra.q[i]]
        twisted = [i for i in range(algebra.n) if algebra.q[i]]
        crossed = {i for pair in algebra.s for i in pair}
        if crossed.intersection(plain) or crossed.intersection(twisted):
            display = "Cl(%s)" % ", ".join(algebra.names)
        else:
            parts = []
            if plain:
                parts.append(
                    "Lambda(%s)" % ", ".join(algebra.names[i] for i in plain)
                )
            for i in twisted:
                parts.append(
                    "T(%s)/(%s^2 - %s*1)"
                    % (
                        algebra.names[i],
                        algebra.names[i],
                        _render_value(coeff, algebra.q[i]),
                    )
                )
            display = " (x) ".join(parts)
    return AlgebraPresentation(kind, gens, tuple(rels), display, tuple(warnings))


def homology_presentation(
    spec: QuotientRingSpec, target=None
) -> tuple[AlgebraPresentation, CliffordAlgebra]:
    """Presentation of the quotient's homology algebra over a target.

    Without a target the coefficients are the quotient itself and the form
    is the characteristic form; a target base-changes it.  Returns the
    presentation together with the computing algebra; a non-regular sequence
    downgrades the result to a lift-only statement via a warning.
    """
    form = characteristic_form_diagonal(spec)
    if target is not None:
        form = base_change_form(form, target)
    algebra = CliffordAlgebra(form.module, form)
    warnings = []
    if not spec.is_regular:
        warnings.append(
            "lift only: sequence not verified regular, no isomorphism asserted"
        )
    return presentation_of(algebra, warnings), algebra


# -- induced maps -----------------------------------------------------


class AlgebraMap:
    """Multiplicative map of Clifford algebras given by generator images.

    The constructor checks the source's relations on the images b_i of the
    a_i: b_i^2 = q_i and b_ib_j + b_jb_i = s_ij.  Then ``apply`` is
    multiplicative.  The coefficients are even, so central, and a_i -> b_i
    extends to an algebra map from the tensor algebra on the a_i.  It kills
    the relators a_ia_i - q_i and a_ia_j + a_ja_i - s_ij, so it factors
    through the source.  The factored map sends a normal-form word
    a_{i_1}...a_{i_k} to b_{i_1}...b_{i_k}, as the linear ``apply`` does.
    """

    def __init__(self, source: CliffordAlgebra, target: CliffordAlgebra, images):
        if source.coeff != target.coeff:
            raise MixedCoefficients("map between different coefficient rings")
        images = tuple(images)
        if len(images) != source.n:
            raise SemanticError("one image per generator required")
        for img in images:
            if not isinstance(img, CliffordElement) or img.owner != target:
                raise MixedAlgebras("image outside the target algebra")
        for i in range(source.n):
            lhs = images[i] * images[i]
            if lhs != target.scalar(source.q[i]):
                raise NotCompatible(
                    "image of %s violates its square relation" % source.names[i]
                )
        for i in range(source.n):
            for j in range(i + 1, source.n):
                lhs = images[i] * images[j] + images[j] * images[i]
                if lhs != target.scalar(source.s_value(i, j)):
                    raise NotCompatible(
                        "images of %s, %s violate the cross relation"
                        % (source.names[i], source.names[j])
                    )
        self.source = source
        self.target = target
        self.images = images

    def apply(self, elem: CliffordElement) -> CliffordElement:
        if elem.owner != self.source:
            raise MixedAlgebras("element of a different source algebra")
        out = self.target.zero()
        for w, c in elem.terms.items():
            part = self.target.scalar(c)
            for i in w:
                part = part * self.images[i]
            out = out + part
        return out


def induced_algebra_map(
    source: CliffordAlgebra, target: CliffordAlgebra
) -> AlgebraMap:
    """The map determined by sending each source generator to the class of
    its sequence entry in the target's conormal module."""
    if source.module is None or target.module is None:
        raise SemanticError("both algebras need conormal modules")
    images = [target.phi(x) for x in source.module.parent.sequence]
    return AlgebraMap(source, target, images)


# -- brute-force oracle -----------------------------------------------


class BruteForceModel:
    """Independent rewriting model of the same Clifford algebra.

    Constants are derived from the raw bilinear matrix by polarization,
    never taken from an engine instance.  Rewriting removes the leftmost
    ordering violation until all words are strictly increasing.
    """

    def __init__(self, coeff, matrix, word_bound: int = 10000):
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise SemanticError("bilinear matrix must be square")
        vals = [[coeff.coerce(v) for v in row] for row in matrix]
        self.coeff = coeff
        self.n = n
        self.word_bound = word_bound
        # q from the diagonal; cross constants by polarizing the form
        self.qvals = [vals[i][i] for i in range(n)]
        self.svals = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    self.svals[(i, j)] = coeff.add(vals[i][j], vals[j][i])

    def normal_form(self, terms):
        """Rewrite a word-to-coefficient mapping to increasing words."""
        coeff = self.coeff
        work = {tuple(w): c for w, c in terms.items() if not coeff.is_zero(c)}
        steps = 0
        while True:
            bad = None
            for w in work:
                for t in range(len(w) - 1):
                    if w[t] >= w[t + 1]:
                        bad = (w, t)
                        break
                if bad:
                    break
            if bad is None:
                return {w: c for w, c in work.items() if not coeff.is_zero(c)}
            steps += 1
            if steps > self.word_bound:
                raise BoundTooSmall(
                    "rewriting did not terminate within %d steps" % self.word_bound
                )
            w, t = bad
            c = work.pop(w)
            i, j = w[t], w[t + 1]
            if i == j:
                shorter = w[:t] + w[t + 2 :]
                val = coeff.mul(c, self.qvals[i])
                if not coeff.is_zero(val):
                    work[shorter] = coeff.add(work.get(shorter, coeff.zero()), val)
            else:
                swapped = w[:t] + (j, i) + w[t + 2 :]
                nval = coeff.neg(c)
                if not coeff.is_zero(nval):
                    work[swapped] = coeff.add(work.get(swapped, coeff.zero()), nval)
                shorter = w[:t] + w[t + 2 :]
                sval = coeff.mul(c, self.svals[(j, i)])
                if not coeff.is_zero(sval):
                    work[shorter] = coeff.add(work.get(shorter, coeff.zero()), sval)

    def basis(self):
        words = [()]
        for i in range(self.n):
            words = words + [w + (i,) for w in words]
        return sorted(words, key=lambda w: (len(w), w))

    def product(self, w1, w2):
        return self.normal_form({tuple(w1) + tuple(w2): self.coeff.one()})


def brute_force_presentation(
    module_or_rank, form_matrix, word_bound: int = 10000, base: BaseRing | None = None
):
    """Presentation certified by exhaustive rewriting; the oracle route.

    Accepts either a ConormalModule (graded mode) or a rank with a scalar
    base ring.  Returns (presentation, model).
    """
    if isinstance(module_or_rank, ConormalModule):
        coeff = module_or_rank.coefficients
        n = module_or_rank.rank
        degrees = module_or_rank.degrees
    else:
        if base is None:
            raise SemanticError("scalar mode needs a base ring")
        coeff = base
        n = int(module_or_rank)
        degrees = None
    if isinstance(form_matrix, BilinearFormData):
        matrix = [list(row) for row in form_matrix.entries]
    else:
        matrix = [list(row) for row in form_matrix]
    if len(matrix) != n:
        raise SemanticError("matrix size does not match the rank")
    model = BruteForceModel(coeff, matrix, word_bound)
    s = {(i, j): v for (i, j), v in model.svals.items() if i < j and v}
    shadow = CliffordAlgebra._raw(
        coeff,
        tuple("a%d" % i for i in range(n)),
        degrees,
        tuple(model.qvals),
        s,
    )
    return presentation_of(shadow), model
