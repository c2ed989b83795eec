"""Exact row-style linear algebra over the integers, the p-local integers
and the prime fields.

Everything here works on plain lists.  Vectors are rows; a lattice is the
row span of a list of vectors.  Over the integers the canonical form is the
row Hermite normal form with non-negative entries above each pivot; over
Z_(p) rows are echelonized with p-power pivots (valuation pivoting), which
is the denominator-cleared normal form for a discrete valuation ring; over
F_p it is the reduced row echelon form mod p, kept on sparse rows.

Hermite forms follow Cohen, GTM 138, section 2.4.  All three lattices
answer ``reduce``, ``contains`` and ``coordinates`` (the coefficients of a
vector on the echelon ``basis()``) from the echelon form alone; only
``solve``, which writes a vector on the original rows, needs the transform
``T``, and ``IntLattice`` and ``FieldLattice`` build it only when it is
first read.  ``snf_invariants`` first eliminates unit pivots on sparse
rows, each of which splits off an invariant factor 1, and runs the general
Smith elimination only on the rows that are left.

The integer and prime-field lattices keep their rows sparse inside, as
``{col: value}`` dicts, and dense at the API: they take dense rows and
vectors, and return dense ``H``, ``basis()``, ``T`` and results.  The
ideal-slice and Koszul rows they see are nearly empty, so each elimination
step touches only the nonzero entries (Dumas, Saunders & Villard,
J. Symbolic Comput. 2001, for sparse elimination).

Rows are ``int``: the ring layer clears the coefficients of each ideal
slice and each Koszul differential once, over one p-unit multiple, and
hands every lattice integer rows, which nothing here converts again.
``Fraction`` s with p-unit denominators arrive only as vectors and as
``LocalLattice`` coordinates.  The p-local routines accept them and compute
fraction-free: each row is an integer vector over one p-unit denominator,
and elimination multiplies rows by p-units (Bareiss-style
integer-preserving elimination), which are invertible over Z_(p).
``Fraction`` s are built only for returned values, which are exactly the
rationals that elimination over Q would give.

``lattice_for``, ``module_invariants`` and ``kernel_basis`` are the one
place where the base ring picks the algebra: Z_(p) gets the p-local
lattice and p-parts of the invariant factors, F_p the field lattice, and Z
and Z/m the integer lattice.  A span over Z/m is lifted to Z here, by the
``modulus_rows`` m * e_j, so no caller carries them.  Localizing at p is
exact, so Z and Z_(p) need different pivots but nothing else.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm

from .errors import SemanticError
from .scalars import INTEGERS_LOCALIZED, INTEGERS_MOD, PRIME_FIELD


def _sub_row(rows, i, j, q):
    rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]


def _row_combination(coef, rows, out):
    """``out`` plus the sum of ``coef[k] * rows[k]``, skipping zeros."""
    for c, row in zip(coef, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def sparse_row(row):
    """The nonzero entries of a dense row, as ``{col: value}``."""
    return {j: row[j] for j in compress(range(len(row)), row)}


def _dense(row, width):
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return out


def _sub_multiple(dst, q, src):
    """``dst -= q * src`` on sparse ``{col: value}`` rows, in place."""
    for j, x in src.items():
        y = dst.get(j, 0) - q * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _hermite(A, width):
    """Reduce the sparse integer rows ``A`` in place to row Hermite form.

    Pivots are sought in the first ``width`` columns only, so columns past
    ``width`` ride along with every row operation.  Returns the pivots as
    ``(row, col)`` pairs.

    It matches the dense elimination of Cohen, GTM 138, section 2.4 (kept
    as ``ref_hermite`` in the tests) step for step, on ``{col: value}``
    rows: in each column the pivot is a smallest nonzero entry at or below
    row ``r``, the lowest row index on ties, swapped to row ``r``; every
    row below gets the floor-quotient multiple of it subtracted, until no
    entry below the pivot is left; then the pivot is made positive and the
    rows above are reduced into ``[0, pivot)``.  Only the row operations
    touch fewer cells.  The steps must stay the same because the transform
    is not unique: kernel rows and ``decompose_conormal``'s maps read it,
    and the reports built from them are pinned byte for byte in
    ``bench/golden.json``.
    """
    m = len(A)
    pivots = []
    r = 0
    for c in range(width):
        if r == m:
            break
        nz = [i for i in range(r, m) if c in A[i]]
        if not nz:
            continue
        while True:
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
            piv = A[r]
            a = piv[c]
            # The rows below r that are nonzero in column c, in row order;
            # a swap moved the old row r to i0.
            below = sorted(i0 if i == r else i for i in nz if i != i0)
            for i in below:
                q = A[i][c] // a
                if q:
                    _sub_multiple(A[i], q, piv)
            nz = [i for i in below if c in A[i]]
            if not nz:
                break
            nz.insert(0, r)
        if piv[c] < 0:
            for j in piv:
                piv[j] = -piv[j]
        a = piv[c]
        for i in range(r):
            q = A[i].get(c, 0) // a
            if q:
                _sub_multiple(A[i], q, piv)
        pivots.append((r, c))
        r += 1
    return pivots


def hnf_transform(rows, width):
    """Row Hermite form of ``rows``.

    Returns ``(H, T, pivots)`` with ``T`` unimodular, ``T * rows == H``,
    zero rows of ``H`` last, and ``pivots`` a list of ``(row, col)`` pairs.
    Entries above each pivot are reduced into ``[0, pivot)``.  ``T`` is
    carried as ``m`` extra sparse columns of each row, starting from the
    identity.
    """
    m = len(rows)
    n = len(rows[0]) if rows else width
    A = [sparse_row(row) for row in rows]
    for i, row in enumerate(A):
        row[n + i] = 1
    pivots = _hermite(A, width)
    H = [[0] * n for _ in A]
    T = [[0] * m for _ in A]
    for h, t, row in zip(H, T, A):
        for j, x in row.items():
            if j < n:
                h[j] = x
            else:
                t[j - n] = x
    return H, T, pivots


class IntLattice:
    """Row span of integer vectors with canonical coset representatives.

    The rows come in and go out dense, but the lattice keeps them sparse
    inside: construction runs ``_hermite`` on ``{col: value}`` rows and
    keeps that echelon form and its pivots, which is all that ``reduce``,
    ``contains`` and ``coordinates`` read, touching only the nonzero
    entries of each pivot row.  The dense Hermite form ``H`` is built on
    first read.  The transform ``T`` with ``T * rows == H`` is needed by
    ``solve`` alone, to carry coordinates on ``basis()`` back to the
    original rows: it is a cached property that reruns the same
    elimination with the transform on first use, so it equals the ``T`` of
    ``hnf_transform(rows, width)``.
    """

    def __init__(self, rows, width):
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        self._echelon = [sparse_row(row) for row in rows]
        self.pivots = _hermite(self._echelon, width)
        self.rank = len(self.pivots)

    @cached_property
    def H(self):
        return [_dense(row, self.width) for row in self._echelon]

    @cached_property
    def T(self):
        return hnf_transform(self._rows, self.width)[1]

    def basis(self):
        return [self.H[r] for r, _ in self.pivots]

    def _reduce(self, vec, coef=None):
        """``vec`` reduced modulo the lattice; ``coef[r]`` records the
        multiple of ``basis()[r]`` removed.  ``reduce`` passes no ``coef``."""
        res = list(vec)
        for r, c in self.pivots:
            if not res[c]:
                continue
            row = self._echelon[r]
            q = res[c] // row[c]
            if q:
                for j, x in row.items():
                    res[j] -= q * x
                if coef is not None:
                    coef[r] = q
        return res

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the lattice."""
        return self._reduce(vec)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Integer coefficients on ``basis()`` giving ``vec``, or None."""
        coef = [0] * self.rank
        res = self._reduce(vec, coef)
        return None if any(res) else coef

    def solve(self, vec):
        """Integer coefficients on the original rows giving ``vec``, or None."""
        coef = self.coordinates(vec)
        return None if coef is None else _row_combination(coef, self.T, [0] * self.nrows)


def _has_unit(row) -> bool:
    return 1 in map(abs, row.values())


def snf_invariants(rows):
    """Invariant factors (positive, each dividing the next) of the row span.

    A unit-pivot phase runs first, on sparse ``{col: value}`` rows (Dumas,
    Saunders & Villard, J. Symbolic Comput. 2001): while some row has an
    entry +-1, take the shortest such row (the first on ties, kept in a heap
    keyed by length and position), subtract multiples of it from every
    other row that is nonzero in the pivot column (kept in a column index),
    and drop it.  Once
    the pivot column is clear, column operations clear the rest of the
    pivot row without touching any other row, so each such step splits off
    one invariant factor 1.  The leftover rows, usually none, go to the
    general smallest-entry elimination.
    """
    A = [row for row in map(sparse_row, rows) if row]
    # (length, index) of each row that holds a unit, smallest first.  An
    # entry is stale once its row is gone, has changed length or has lost
    # its unit; a row is pushed again whenever an elimination changes it.
    queue = [(len(row), i) for i, row in enumerate(A) if _has_unit(row)]
    heapify(queue)
    holders = {}  # column -> indices of the live rows nonzero there
    for i, row in enumerate(A):
        for j in row:
            holders.setdefault(j, set()).add(i)
    units = 0
    while queue:
        n, i = heappop(queue)
        pivot = A[i]
        if not pivot or len(pivot) != n or not _has_unit(pivot):
            continue
        A[i] = None
        for j in pivot:
            holders[j].discard(i)
        c, u = next((j, x) for j, x in pivot.items() if x in (1, -1))
        for k in list(holders[c]):
            row = A[k]
            _sub_multiple(row, row[c] * u, pivot)
            for j in pivot:
                if j in row:
                    holders[j].add(k)
                else:
                    holders[j].discard(k)
            if _has_unit(row):
                heappush(queue, (len(row), k))
        units += 1
    A = [row for row in A if row]
    cols = sorted({j for row in A for j in row})
    return [1] * units + _snf_general([[row.get(j, 0) for j in cols] for row in A])


def _snf_general(A):
    """Invariant factors of the nonzero integer rows ``A``, destroying ``A``.

    Each step moves a smallest entry to the corner, clears its row and
    column, and adds any row the corner does not divide into the first.
    """
    invs = []
    while A and A[0]:
        best = None
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, bi, bj = best
        A[0], A[bi] = A[bi], A[0]
        for row in A:
            row[0], row[bj] = row[bj], row[0]
        while True:
            dirty = False
            for i in range(1, len(A)):
                if A[i][0]:
                    q = A[i][0] // A[0][0]
                    if q:
                        _sub_row(A, i, 0, q)
                    if A[i][0]:
                        dirty = True
            if dirty:
                bi = min(
                    (i for i in range(len(A)) if A[i][0]),
                    key=lambda i: abs(A[i][0]),
                )
                A[0], A[bi] = A[bi], A[0]
                continue
            dirty = False
            for j in range(1, len(A[0])):
                if A[0][j]:
                    q = A[0][j] // A[0][0]
                    if q:
                        for row in A:
                            row[j] -= q * row[0]
                    if A[0][j]:
                        dirty = True
            if dirty:
                bj = min(
                    (j for j in range(len(A[0])) if A[0][j]),
                    key=lambda j: abs(A[0][j]),
                )
                for row in A:
                    row[0], row[bj] = row[bj], row[0]
                continue
            d = abs(A[0][0])
            if d == 1:
                break
            off = None
            for i in range(1, len(A)):
                if any(x % d for x in A[i]):
                    off = i
                    break
            if off is None:
                break
            A[0] = [a + b for a, b in zip(A[0], A[off])]
        invs.append(abs(A[0][0]))
        A = [row[1:] for row in A[1:]]
        A = [row for row in A if any(row)]
    return invs


# -- p-local (discrete valuation ring) routines -----------------------


def pval(x, p) -> int | None:
    """p-adic valuation of an int or Fraction; None stands for +infinity (x == 0)."""
    num, den = x.numerator, x.denominator
    if num == 0:
        return None
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def p_part(n: int, p: int) -> int:
    n = abs(int(n))
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def canonical_residue(x, p, k) -> int:
    """Representative of ``x`` modulo ``p^k * Z_(p)`` in ``[0, p^k)``."""
    return _residue(x.numerator, x.denominator, p**k)


def _residue(num, den, pk) -> int:
    """``num / den`` modulo the p-power ``pk``, in ``[0, pk)``; ``den`` a p-unit."""
    return num * pow(den, -1, pk) % pk if pk > 1 else 0


def _cleared(vec):
    """``(N, D)`` with ``vec == N / D``: integer numerators over the lcm ``D``
    of the denominators."""
    dens = [x.denominator for x in vec]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (den // e) for x, e in zip(vec, dens)], den


def _local_numerators(vec, p):
    """``_cleared(vec)`` for a p-local ``vec``; other vectors raise ``SemanticError``."""
    nums, den = _cleared(vec)
    if den % p == 0:
        bad = next(x for x in vec if x.denominator % p == 0)
        raise SemanticError(
            "denominator of %s is divisible by %d, not %d-local" % (bad, p, p)
        )
    return nums, den


_ZERO = Fraction(0)


def _fractions(nums, den):
    """The rationals ``nums[j] / den``, sharing one ``Fraction`` for zero."""
    return [Fraction(x, den) if x else _ZERO for x in nums]


def _stripped(a, b, d):
    """``a``, ``b`` and ``d`` divided by their common factor."""
    g = gcd(d, *a, *b)
    if g == 1:
        return a, b, d
    return [x // g for x in a], [x // g for x in b], d // g


class LocalLattice:
    """Span over Z_(p) of p-local rational rows, echelonized with p-power pivots.

    Row ``i`` of the echelon form is kept fraction-free as integer vectors
    ``A[i]`` and ``B[i]`` over one positive p-unit denominator ``d[i]``:
    ``E[i] = A[i] / d[i]`` and ``T[i] = B[i] / d[i]``, with ``E == T * rows``.
    Elimination is Bareiss-style and integer-preserving: the update
    ``A[i] <- d[r]*A[i] - q*A[r]`` scales row ``i`` by the p-unit ``d[r]``,
    and ``d[i] <- d[i]*d[r]`` divides that unit out again, so ``A[i] / d[i]``
    is exactly the row that elimination over the rationals produces.
    Pivots are chosen by (valuation, row index).  A pivot row is normalized
    to the entry ``p^v`` by taking the unit part of its pivot as its
    denominator, and entries above a pivot keep their canonical residue in
    ``[0, p^v)``.  Each updated row is divided by its common factor with its
    denominator, which keeps the integers small.

    ``E``, ``T`` and ``basis()`` give the echelon rows as ``Fraction`` s,
    built once on first use.  Rows whose denominator is divisible by ``p``
    are not p-local and raise ``SemanticError``.
    """

    def __init__(self, rows, width, p):
        self.p = p
        self.width = width
        self.nrows = m = len(rows)
        A, d = [], []
        for row in rows:
            nums, den = _local_numerators(row, p)
            A.append(nums)
            d.append(den)
        B = [[0] * m for _ in range(m)]
        for i in range(m):
            B[i][i] = d[i]
        pivots = []
        r = 0
        for c in range(width):
            if r == m:
                break
            cand = [(pval(A[i][c], p), i) for i in range(r, m) if A[i][c]]
            if not cand:
                continue
            v, i0 = min(cand)
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
                B[r], B[i0] = B[i0], B[r]
                d[r], d[i0] = d[i0], d[r]
            pk = p**v
            # E[r] / unit with unit = E[r][c] / p^v is A[r] over A[r][c] / p^v.
            dr = A[r][c] // pk
            if dr < 0:
                A[r] = [-x for x in A[r]]
                B[r] = [-x for x in B[r]]
                dr = -dr
            A[r], B[r], d[r] = _stripped(A[r], B[r], dr)
            Ar, Br, dr = A[r], B[r], d[r]
            for i in range(m):
                a = A[i][c]
                if i == r or not a:
                    continue
                if i > r:
                    q = a // pk
                else:
                    q = (a - _residue(a, d[i], pk) * d[i]) // pk
                if q:
                    A[i], B[i], d[i] = _stripped(
                        [dr * x - q * y for x, y in zip(A[i], Ar)],
                        [dr * x - q * y for x, y in zip(B[i], Br)],
                        d[i] * dr,
                    )
            pivots.append((r, c, v))
            r += 1
        self._A, self._B, self._d = A, B, d
        self.pivots = pivots
        self.rank = len(pivots)

    @cached_property
    def E(self):
        return [_fractions(row, den) for row, den in zip(self._A, self._d)]

    @cached_property
    def T(self):
        return [_fractions(row, den) for row, den in zip(self._B, self._d)]

    def basis(self):
        return [self.E[r] for r, _, _ in self.pivots]

    def _reduce_numerators(self, vec, coef=None):
        """``(N, D)``: ``vec`` reduced to ``N / D``; ``coef[r]`` records what
        ``basis()[r]`` removed: ``(dr*N - q*A[r]) / (D*dr) == N/D - (q/D) * E[r]``.
        The normal-form path ``reduce`` passes no ``coef``."""
        p = self.p
        N, D = _local_numerators(vec, p)
        for r, c, v in self.pivots:
            x = N[c]
            if not x:
                continue
            pk = p**v
            q = (x - _residue(x, D, pk) * D) // pk
            if q:
                dr = self._d[r]
                N = [dr * a - q * b for a, b in zip(N, self._A[r])]
                if coef is not None:
                    coef[r] = Fraction(q, D)
                D *= dr
        return N, D

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the lattice."""
        return _fractions(*self._reduce_numerators(vec))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Z_(p) coefficients on ``basis()`` giving ``vec``, or None."""
        coef = [_ZERO] * self.rank
        N, _ = self._reduce_numerators(vec, coef)
        return None if any(N) else coef

    def solve(self, vec):
        """Z_(p) coefficients on the original rows giving ``vec``, or None."""
        coef = self.coordinates(vec)
        return None if coef is None else _row_combination(coef, self.T, [_ZERO] * self.nrows)


# -- prime fields ------------------------------------------------------


def _add_multiple(dst, a, src, p):
    """``dst += a * src`` mod ``p`` on sparse ``{col: value}`` rows, in place."""
    for j, x in src.items():
        y = (dst.get(j, 0) + a * x) % p
        if y:
            dst[j] = y
        else:
            del dst[j]


def _echelon_mod_p(rows, width, p, track):
    """Sparse reduced row echelon form mod ``p`` of the integer ``rows``.

    Gauss-Jordan on ``{col: value}`` rows, one input row at a time: the row
    is reduced by the echelon rows at its pivot columns; if anything is
    left, its leading entry is scaled to 1 and cleared from every echelon
    row, so each pivot column stays zero outside its own row (Dumas,
    Saunders & Villard, J. Symbolic Comput. 2001, for sparse elimination).

    Returns ``(echelon, kernel)``: ``echelon`` maps each pivot column to
    ``(row, transform)``.  With ``track`` the transform ``{i: coef}`` writes
    the row on the input rows, and ``kernel`` holds the transforms of the
    input rows that reduce to zero: a basis of the left kernel mod ``p``,
    since row ``i`` enters its own transform with coefficient 1 and
    otherwise only earlier rows do.  Without ``track`` the transforms are
    None and ``kernel`` stays empty.
    """
    echelon = {}
    kernel = []
    cols = range(width)
    for i, row in enumerate(rows):
        v = {j: y for j in compress(cols, row) if (y := row[j] % p)}
        t = {i: 1} if track else None
        for c in [c for c in v if c in echelon]:
            f = p - v[c]
            e, te = echelon[c]
            _add_multiple(v, f, e, p)
            if track:
                _add_multiple(t, f, te, p)
        if not v:
            if track:
                kernel.append(t)
            continue
        c0 = min(v)
        inv = pow(v[c0], -1, p)
        if inv != 1:
            v = {j: x * inv % p for j, x in v.items()}
            if track:
                t = {j: x * inv % p for j, x in t.items()}
        for e, te in echelon.values():
            f = e.get(c0)
            if f:
                _add_multiple(e, p - f, v, p)
                if track:
                    _add_multiple(te, p - f, t, p)
        echelon[c0] = (v, t)
    return echelon, kernel


class FieldLattice:
    """Span over F_p of integer rows, in sparse reduced row echelon form mod p.

    ``pivots`` are the pivot columns in increasing order, and ``basis()[k]``
    is the echelon row with entry 1 at ``pivots[k]`` and 0 at every other
    pivot, with entries in ``[0, p)``.  So the coordinate of a vector of the
    span on ``basis()[k]`` is its entry at ``pivots[k]``, and ``reduce``
    clears the pivot entries and reduces the rest into ``[0, p)``: the same
    canonical representative that the Hermite form of ``rows + p * I``
    gives over Z, whose pivot-1 rows are exactly these rows and whose other
    rows are ``p * e_c``.  The transform ``T`` (row ``k`` writes
    ``basis()[k]`` on the original rows, mod p) is needed by ``solve``
    alone, and is built by a second, tracked elimination on first read.
    """

    def __init__(self, rows, width, p):
        self.p = p
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        echelon, _ = _echelon_mod_p(rows, width, p, False)
        self.pivots = sorted(echelon)
        self._row_at = {c: echelon[c][0] for c in self.pivots}
        self.rank = len(self.pivots)

    @cached_property
    def T(self):
        echelon, _ = _echelon_mod_p(self._rows, self.width, self.p, True)
        return [_dense(echelon[c][1], self.nrows) for c in self.pivots]

    @cached_property
    def _basis(self):
        return [_dense(row, self.width) for row in self._row_at.values()]

    def basis(self):
        return self._basis

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the span and ``p``."""
        p = self.p
        res = list(vec)
        # Each echelon row is 0 at the other pivots, so the multiple of the
        # row at pivot c to take off is the entry of ``vec`` itself there.
        for c in compress(range(self.width), vec):
            row = self._row_at.get(c)
            if row is not None:
                f = vec[c] % p
                for j, x in row.items():
                    res[j] -= f * x
        return [x % p for x in res]

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Coefficients mod p on ``basis()`` giving ``vec``, or None."""
        if not self.contains(vec):
            return None
        return [vec[c] % self.p for c in self.pivots]

    def solve(self, vec):
        """Coefficients mod p on the original rows giving ``vec``, or None."""
        coef = self.coordinates(vec)
        if coef is None:
            return None
        return [x % self.p for x in _row_combination(coef, self.T, [0] * self.nrows)]


# -- denominator clearing ---------------------------------------------


def cleared_rows(rows):
    """Scale each row by the lcm of its denominators; returns integer rows."""
    return [_cleared(row)[0] for row in rows]


def cleared_matrix(rows):
    """Scale the whole matrix by one common denominator multiple."""
    mult = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (mult // x.denominator) for x in row] for row in rows], mult


# -- one lattice per base ring ----------------------------------------


def modulus_rows(base, width):
    """The rows ``m * e_j`` that lift a span over Z/m to Z; none over other bases."""
    if base.kind != INTEGERS_MOD:
        return []
    return [[base.modulus if j == k else 0 for k in range(width)] for j in range(width)]


def lattice_for(base, rows, width):
    """The span of ``rows`` over ``base``: a ``LocalLattice`` over Z_(p), a
    ``FieldLattice`` over F_p, and an ``IntLattice`` over Z and, on the rows
    lifted by ``modulus_rows``, over Z/m."""
    if base.kind == INTEGERS_LOCALIZED:
        return LocalLattice(rows, width, base.p)
    if base.kind == PRIME_FIELD:
        return FieldLattice(rows, width, base.p)
    return IntLattice(rows + modulus_rows(base, width), width)


def lift_rank(lat) -> int:
    """Rank of the integer lattice that ``lat`` stands for.

    A span over F_p stands for its preimage in Z^width, which contains
    ``p * Z^width`` and so has full rank; the other lattices are their own
    lift (over Z/m it already holds ``modulus_rows``).
    """
    return lat.width if isinstance(lat, FieldLattice) else lat.rank


def module_invariants(base, rows, width):
    """``(free rank, factors)`` of ``base^width`` modulo the span of ``rows``.

    ``factors`` are the sorted invariant factors above 1 of the quotient, as
    p-parts over Z_(p); there the rows, such as ``LocalLattice``
    coordinates, may hold ``Fraction`` s: clearing scales each row by a
    unit of Z_(p), which keeps the span.  Over F_p a quotient of dimension
    k has free rank 0 and k factors p, as over its integer lift; over Z/m
    the rows are lifted by ``modulus_rows``.
    """
    if base.kind == PRIME_FIELD:
        return 0, (base.p,) * (width - FieldLattice(rows, width, base.p).rank)
    if base.kind == INTEGERS_LOCALIZED:
        invs = [p_part(v, base.p) for v in snf_invariants(cleared_rows(rows))]
    else:
        invs = snf_invariants(rows + modulus_rows(base, width))
    return width - len(invs), tuple(sorted(v for v in invs if v > 1))


def kernel_basis(base, rows, width):
    """Rows spanning the left kernel ``{x : x * rows == 0}`` over ``base``.

    Over Z and Z_(p) (whose rows are integers) it is a basis of the integer
    kernel, read from the Hermite transform; over F_p a basis of the kernel
    mod p.  Over Z/m the kernel of the lift by ``modulus_rows``, cut back to
    the coordinates of ``rows``, generates ``{x : x * rows in m * Z^width}``.
    """
    if base.kind == PRIME_FIELD:
        _, kernel = _echelon_mod_p(rows, width, base.p, True)
        return [_dense(t, len(rows)) for t in kernel]
    lift = rows + modulus_rows(base, width)
    H, T, pivots = hnf_transform(lift, width)
    return [T[r][: len(rows)] for r in range(len(pivots), len(lift))]


def lattice_intersection_rows(base, rows_a, rows_b, width):
    """Generating rows for the intersection of two row spans over ``base``.

    Over Z/m they generate it together with ``modulus_rows``, which every
    lattice over Z/m adds."""
    if not rows_a or not rows_b:
        return []
    kernel = kernel_basis(base, rows_a + rows_b, width)
    gens = (_row_combination(k, rows_a, [0] * width) for k in kernel)
    return [vec for vec in gens if any(vec)]
