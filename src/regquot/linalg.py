"""Exact row-style linear algebra over the integers and the p-local integers.

Everything here works on plain lists.  Vectors are rows; a lattice is the
row span of a list of vectors.  Over the integers the canonical form is the
row Hermite normal form with non-negative entries above each pivot; over
Z_(p) rows are echelonized with p-power pivots (valuation pivoting), which
is the denominator-cleared normal form for a discrete valuation ring.

Hermite forms follow Cohen, GTM 138, section 2.4.  Both lattices answer
``reduce``, ``contains`` and ``coordinates`` (the coefficients of a vector
on the echelon ``basis()``) from the echelon form alone; only ``solve``,
which writes a vector on the original rows, needs the transform, and
``IntLattice`` builds it only when ``solve`` first needs it.
``snf_invariants`` first eliminates unit pivots on sparse rows, each of
which splits off an invariant factor 1, and runs the general Smith
elimination only on the rows that are left.

Rows are ``int``: the ring layer clears each ideal slice once, over one
p-unit multiple, and hands every lattice integer rows, which nothing here
converts again.  ``Fraction`` s with p-unit denominators arrive only as
vectors, as ``LocalLattice`` coordinates and as Koszul map rows, which
``cleared_matrix`` clears.  The p-local routines accept them and compute
fraction-free: each row is an integer vector over one p-unit denominator,
and elimination multiplies rows by p-units (Bareiss-style
integer-preserving elimination), which are invertible over Z_(p).
``Fraction`` s are built only for returned values, which are exactly the
rationals that elimination over Q would give.

``lattice_for`` and ``module_invariants`` are the one place where the base
ring picks the lattice: Z_(p) gets the p-local lattice and p-parts of the
invariant factors, and Z, F_p and Z/m get the integer lattice (F_p and Z/m
through their ``modulus * I`` rows).  Localizing at p is exact, so the two
need different pivots but nothing else.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import SemanticError
from .scalars import INTEGERS_LOCALIZED


def _sub_row(rows, i, j, q):
    rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]


def _row_combination(coef, rows, out):
    """``out`` plus the sum of ``coef[k] * rows[k]``, skipping zeros."""
    for c, row in zip(coef, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def _hermite(A, width):
    """Reduce the integer rows ``A`` in place to row Hermite form.

    Pivots are sought in the first ``width`` columns only, so columns past
    ``width`` ride along with every row operation.  Returns the pivots as
    ``(row, col)`` pairs.
    """
    m = len(A)
    pivots = []
    r = 0
    for c in range(width):
        if r == m:
            break
        found = False
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
            clean = True
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    if q:
                        _sub_row(A, i, r, q)
                    if A[i][c] != 0:
                        clean = False
            if clean:
                found = True
                break
        if not found:
            continue
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                _sub_row(A, i, r, q)
        pivots.append((r, c))
        r += 1
    return pivots


def hnf_transform(rows, width):
    """Row Hermite form of ``rows``.

    Returns ``(H, T, pivots)`` with ``T`` unimodular, ``T * rows == H``,
    zero rows of ``H`` last, and ``pivots`` a list of ``(row, col)`` pairs.
    Entries above each pivot are reduced into ``[0, pivot)``.  ``T`` is
    carried as ``m`` extra columns of each row, starting from the identity.
    """
    m = len(rows)
    A = []
    for i, row in enumerate(rows):
        aug = list(row) + [0] * m
        aug[len(row) + i] = 1
        A.append(aug)
    pivots = _hermite(A, width)
    return [row[:-m] for row in A], [row[-m:] for row in A], pivots


class IntLattice:
    """Row span of integer vectors with canonical coset representatives.

    Construction computes the Hermite form ``H`` and its pivots only, which
    is all that ``reduce``, ``contains`` and ``coordinates`` read.  The
    transform ``T`` with ``T * rows == H`` is needed by ``solve`` alone,
    to carry coordinates on ``basis()`` back to the original rows: it is a
    cached property that reruns the same elimination with the transform on
    first use, so it equals the ``T`` of ``hnf_transform(rows, width)``.
    """

    def __init__(self, rows, width):
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        self.H = [list(row) for row in rows]
        self.pivots = _hermite(self.H, width)
        self.rank = len(self.pivots)

    @cached_property
    def T(self):
        return hnf_transform(self._rows, self.width)[1]

    def basis(self):
        return [self.H[r] for r, _ in self.pivots]

    def _reduce(self, vec, coef=None):
        """``vec`` reduced modulo the lattice; ``coef[r]`` records the
        multiple of ``basis()[r]`` removed.  ``reduce`` passes no ``coef``."""
        res = vec
        for r, c in self.pivots:
            q = res[c] // self.H[r][c]
            if q:
                res = [a - q * b for a, b in zip(res, self.H[r])]
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


def kernel_basis(rows, width):
    """Basis of the left kernel lattice ``{x : x * rows == 0}``."""
    H, T, pivots = hnf_transform(rows, width)
    return [T[r] for r in range(len(pivots), len(rows))]


def snf_invariants(rows):
    """Invariant factors (positive, each dividing the next) of the row span.

    A unit-pivot phase runs first, on sparse ``{col: value}`` rows (Dumas,
    Saunders & Villard, J. Symbolic Comput. 2001): while some row has an
    entry +-1, take the shortest such row, subtract multiples of it from
    every other row that is nonzero in the pivot column, and drop it.  Once
    the pivot column is clear, column operations clear the rest of the
    pivot row without touching any other row, so each such step splits off
    one invariant factor 1.  The leftover rows, usually none, go to the
    general smallest-entry elimination.
    """
    A = [{j: x for j, x in enumerate(row) if x} for row in rows]
    A = [row for row in A if row]
    units = 0
    while A:
        best = None
        for i, row in enumerate(A):
            if (best is None or len(row) < len(A[best])) and 1 in map(abs, row.values()):
                best = i
        if best is None:
            break
        pivot = A.pop(best)
        c, u = next((j, x) for j, x in pivot.items() if x in (1, -1))
        for row in A:
            a = row.get(c)
            if a:
                q = a * u
                for j, x in pivot.items():
                    v = row.get(j, 0) - q * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        A = [row for row in A if row]
        units += 1
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


def lattice_intersection_rows(rows_a, rows_b, width):
    """Generating rows for the intersection of two integer row spans."""
    if not rows_a or not rows_b:
        return []
    kernel = kernel_basis(rows_a + rows_b, width)
    gens = (_row_combination(k, rows_a, [0] * width) for k in kernel)
    return [vec for vec in gens if any(vec)]


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
    ``E[i] = A[i] / d[i]`` and ``U[i] = B[i] / d[i]``, with ``E == U * rows``.
    Elimination is Bareiss-style and integer-preserving: the update
    ``A[i] <- d[r]*A[i] - q*A[r]`` scales row ``i`` by the p-unit ``d[r]``,
    and ``d[i] <- d[i]*d[r]`` divides that unit out again, so ``A[i] / d[i]``
    is exactly the row that elimination over the rationals produces.
    Pivots are chosen by (valuation, row index).  A pivot row is normalized
    to the entry ``p^v`` by taking the unit part of its pivot as its
    denominator, and entries above a pivot keep their canonical residue in
    ``[0, p^v)``.  Each updated row is divided by its common factor with its
    denominator, which keeps the integers small.

    ``E``, ``U`` and ``basis()`` give the echelon rows as ``Fraction`` s,
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
    def U(self):
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
        return None if coef is None else _row_combination(coef, self.U, [_ZERO] * self.nrows)


# -- denominator clearing ---------------------------------------------


def cleared_rows(rows):
    """Scale each row by the lcm of its denominators; returns integer rows."""
    return [_cleared(row)[0] for row in rows]


def cleared_matrix(rows):
    """Scale the whole matrix by one common denominator multiple."""
    mult = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (mult // x.denominator) for x in row] for row in rows], mult


# -- one lattice per base ring ----------------------------------------


def lattice_for(base, rows, width):
    """The span of ``rows`` over ``base``: a ``LocalLattice`` over Z_(p),
    an ``IntLattice`` otherwise."""
    if base.kind == INTEGERS_LOCALIZED:
        return LocalLattice(rows, width, base.p)
    return IntLattice(rows, width)


def module_invariants(base, rows):
    """``(rank, factors)`` of the span of ``rows`` over ``base``.

    ``factors`` are the sorted invariant factors above 1 of the rows, as
    p-parts over Z_(p).  There the rows, such as ``LocalLattice``
    coordinates, may hold ``Fraction`` s: clearing scales each row by a
    unit of Z_(p), which keeps the span.
    """
    if base.kind == INTEGERS_LOCALIZED:
        invs = [p_part(v, base.p) for v in snf_invariants(cleared_rows(rows))]
    else:
        invs = snf_invariants(rows)
    return len(invs), tuple(sorted(v for v in invs if v > 1))
