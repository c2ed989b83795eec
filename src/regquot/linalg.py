"""Exact row-style linear algebra over the integers, the p-local integers
and the prime fields.

Everything here works on plain lists.  Vectors are rows; a lattice is the
row span of a list of vectors.  Over the integers the canonical form is the
row Hermite normal form with non-negative entries above each pivot; over
Z_(p) rows are echelonized with p-power pivots (valuation pivoting), which
is the denominator-cleared normal form for a discrete valuation ring; over
F_p it is the reduced row echelon form mod p, kept on sparse rows.

Hermite forms follow Cohen, GTM 138, section 2.4.  All three lattices
keep their rows sparse inside, as ``{col: value}`` dicts, and dense at the
API: they take dense rows and vectors and return dense integer rows.  The
ideal-slice and Koszul rows they see are nearly empty, so each elimination
step touches only the nonzero entries (Dumas, Saunders & Villard, J.
Symbolic Comput. 2001, for sparse elimination).

Every lattice answers in integers over one unit ``D``, 1 over Z, F_p and
Z/m and a p-unit over Z_(p) (``_Lattice`` lists the answers).  Nothing
here builds a ``Fraction``: the ring layer divides, once, where a
coefficient leaves for a ring element.  ``reduce`` and the coordinates
come from the echelon form alone.  The transform, which ``solve`` needs,
is built on first read: the elimination runs again on rows that carry the
identity as extra columns past ``width`` (``_with_identity``), and
``_transform_rows`` reads them back.  ``kernel_basis`` reads the kernel
from those columns too.  ``snf_invariants`` first eliminates unit pivots
on sparse rows, each of which splits off an invariant factor 1, and runs
the general Smith elimination only on the rows that are left.

Rows are ``int``: the ring layer clears the coefficients of each ideal
slice and each Koszul differential once, over one p-unit multiple, and
hands every lattice integer rows, which nothing here converts again.
``Fraction`` s with p-unit denominators arrive only as vectors.  The
p-local routines compute fraction-free: each row is an integer vector over
one p-unit denominator, and elimination multiplies rows by p-units
(Bareiss-style integer-preserving elimination), which are invertible over
Z_(p).

``lattice_for``, ``module_invariants``, ``kernel_basis`` and
``residue_prime`` are the one place where the base ring picks the algebra:
Z_(p) gets the p-local lattice and p-parts of the invariant factors, F_p
the field lattice, and Z and Z/m the integer lattice; ``residue_prime``
says when a span may be taken mod p.  A span over Z/m is lifted to Z here, by the
``modulus_rows`` m * e_j, so no caller carries them.  Localizing at p is
exact, so Z and Z_(p) need different pivots but nothing else.
"""
from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm

from .errors import SemanticError
from .scalars import INTEGERS_LOCALIZED, INTEGERS_MOD, PRIME_FIELD


def _sub_row(rows, i, j, q):
    rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]


def _row_combination(coef, rows, out):
    """``out`` plus the sum of ``coef[k] * rows[k]``, added in place; zero
    coefficients and zero entries cost no product."""
    for c, row in zip(coef, rows):
        if c:
            for j in compress(range(len(row)), row):
                out[j] += c * row[j]
    return out


def sparse_row(row):
    """The nonzero entries of a dense row, as ``{col: value}``."""
    return {j: row[j] for j in compress(range(len(row)), row)}


def _dense(row, width, start=0):
    """Columns ``start`` to ``start + width`` of a sparse row, as a dense list."""
    out = [0] * width
    for j, x in row.items():
        if 0 <= j - start < width:
            out[j - start] = x
    return out


def _with_identity(A, width, diag=None):
    """The sparse rows ``A``, each given in place the transform entry 1, or
    ``diag[i]``, at column ``width + i``; the p-local rows take their
    denominators, so that each transform row shares its row's denominator.

    Every elimination here seeks pivots in the first ``width`` columns only,
    so these entries ride along with each row operation, and
    ``_transform_rows`` reads them back.  A row left with entries past
    ``width`` only is a kernel vector.

    A run with these columns gives the same echelon rows as one without.
    Over Z and F_p the first ``width`` columns go through the very same
    steps.  The p-local run may divide a row by a smaller common factor,
    since the extra entries join the gcd, so its denominators may differ;
    but its pivots and quotients depend only on the rationals
    ``A[i] / d[i]``, which both runs compute exactly, so each transform row
    writes the same echelon row.
    """
    for i, row in enumerate(A):
        row[width + i] = 1 if diag is None else diag[i]
    return A


def _transform_rows(A, width, m):
    """The first ``m`` transform columns of each row of ``A``, as dense rows."""
    return [_dense(row, m, width) for row in A]


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
    Entries above each pivot are reduced into ``[0, pivot)``.  ``T`` rides
    along as the identity columns of ``_with_identity``.
    """
    A = _with_identity([sparse_row(row) for row in rows], width)
    pivots = _hermite(A, width)
    return [_dense(row, width) for row in A], _transform_rows(A, width, len(rows)), pivots


class _Lattice:
    """The one face of every lattice: integers over one unit ``D``, which
    is 1 over Z, F_p and Z/m.

    * ``integer_basis()``: the echelon rows ``_echelon[:rank]``, dense;
    * ``reduce(vec)``: ``(N, D)``, ``N / D`` the canonical residue;
    * ``integer_coordinates(vec)``: ``(C, D)``, ``C / D`` on that basis,
      or None;
    * ``integer_transform()``: ``(t, D)`` with ``t[r] * rows == D *
      basis[r]``, built once, on first read, as ``_transform``;
    * ``solve(vec)``: ``(S, D)``, ``S / D`` on the original rows, or None.
    """

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec)[0])

    def integer_basis(self):
        return [_dense(row, self.width) for row in self._echelon[: self.rank]]

    def integer_transform(self):
        return self._transform

    def solve(self, vec):
        # vec is C / Dc on the basis, and basis[r] is t[r] / Dt on the rows
        got = self.integer_coordinates(vec)
        if got is None:
            return None
        t, D = self.integer_transform()
        return _row_combination(got[0], t, [0] * self.nrows), got[1] * D


class IntLattice(_Lattice):
    """Row span of integer vectors with canonical coset representatives.

    Construction runs ``_hermite`` on sparse rows and keeps that echelon
    form and its pivots, which is all that ``reduce``, ``contains`` and
    ``integer_coordinates`` read.  The transform that ``solve`` alone
    needs, the rows of the ``T`` of ``hnf_transform(rows, width)`` up to
    the rank, is built on first read.
    """

    def __init__(self, rows, width):
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        self._echelon = [sparse_row(row) for row in rows]
        self.pivots = _hermite(self._echelon, width)
        self.rank = len(self.pivots)

    @cached_property
    def _transform(self):
        return hnf_transform(self._rows, self.width)[1][: self.rank], 1

    def _reduce(self, vec, coef=None):
        """``vec`` reduced modulo the lattice; ``coef[r]`` records the
        multiple of basis row ``r`` removed.  ``reduce`` passes no ``coef``."""
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
        """Canonical representative of ``vec`` modulo the lattice, over 1."""
        return self._reduce(vec), 1

    def integer_coordinates(self, vec):
        coef = [0] * self.rank
        res = self._reduce(vec, coef)
        return None if any(res) else (coef, 1)

    # The benchmark's tracer wraps and restores ``solve`` in the class's own
    # namespace, here and on ``LocalLattice``.
    solve = _Lattice.solve


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


def _residue(num, den, pk) -> int:
    """``num / den`` modulo the p-power ``pk``, in ``[0, pk)``; ``den`` a p-unit."""
    return num * pow(den, -1, pk) % pk if pk > 1 else 0


def _cleared(vec):
    """``(N, D)`` with ``vec == N / D``: integer numerators over the lcm ``D``
    of the denominators.  An all-``int`` ``vec`` is copied at once."""
    if set(map(type, vec)) <= {int}:
        return list(vec), 1
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


def _stripped(row, d):
    """The sparse ``row`` and ``d`` divided by their common factor."""
    g = gcd(d, *row.values())
    if g == 1:
        return row, d
    return {j: x // g for j, x in row.items()}, d // g


def _local_rows(rows, p):
    """``(A, d)``: each p-local row as sparse integer numerators ``A[i]``
    over a p-unit denominator ``d[i]``."""
    pairs = [_local_numerators(row, p) for row in rows]
    return [sparse_row(nums) for nums, _ in pairs], [den for _, den in pairs]


def _bareiss_local(A, d, width, p):
    """Echelonize the p-local rows ``A[i] / d[i]`` in place with p-power
    pivots; returns the pivots as ``(row, col, valuation)``.

    Pivots are sought in the first ``width`` columns only, the one with the
    least valuation, the lowest row index on ties.  Elimination is
    Bareiss-style and integer-preserving: the update
    ``A[i] <- d[r]*A[i] - q*A[r]`` scales row ``i`` by the p-unit ``d[r]``,
    and ``d[i] <- d[i]*d[r]`` divides that unit out again, so ``A[i] / d[i]``
    is exactly the row that elimination over the rationals produces.  A
    pivot row is normalized to the entry ``p^v`` by taking the unit part of
    its pivot as its denominator, and entries above a pivot keep their
    canonical residue in ``[0, p^v)``.  Each updated row is divided by its
    common factor with its denominator, which keeps the integers small.
    """
    m = len(A)
    pivots = []
    r = 0
    for c in range(width):
        if r == m:
            break
        cand = [(pval(A[i][c], p), i) for i in range(r, m) if c in A[i]]
        if not cand:
            continue
        v, i0 = min(cand)
        if i0 != r:
            A[r], A[i0] = A[i0], A[r]
            d[r], d[i0] = d[i0], d[r]
        pk = p**v
        # E[r] / unit with unit = E[r][c] / p^v is A[r] over A[r][c] / p^v.
        dr = A[r][c] // pk
        if dr < 0:
            A[r] = {j: -x for j, x in A[r].items()}
            dr = -dr
        A[r], d[r] = piv, dr = _stripped(A[r], dr)
        for i in range(m):
            a = A[i].get(c)
            if i == r or not a:
                continue
            if i > r:
                q = a // pk
            else:
                q = (a - _residue(a, d[i], pk) * d[i]) // pk
            if q:
                row = A[i] if dr == 1 else {j: dr * x for j, x in A[i].items()}
                _sub_multiple(row, q, piv)
                A[i], d[i] = _stripped(row, d[i] * dr)
        pivots.append((r, c, v))
        r += 1
    return pivots


class LocalLattice(_Lattice):
    """Span over Z_(p) of p-local rational rows, echelonized with p-power pivots.

    Row ``i`` of the echelon form is kept fraction-free, as a sparse integer
    row ``A[i]`` over one positive p-unit denominator ``d[i]``, by
    ``_bareiss_local``; the pivot of ``A[r]`` is ``p^v * d[r]``.  The pivot
    rows ``A[r]`` are ``integer_basis()``, and one loop, ``_reduce``, gives
    the residue and the coordinates on them over one p-unit.  The transform
    is built on first read by the same elimination with the identity
    columns of ``_with_identity``.  Rows whose denominator is divisible by
    ``p`` are not p-local and raise ``SemanticError``.
    """

    def __init__(self, rows, width, p):
        self.p = p
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        self._echelon, self._d = _local_rows(rows, p)
        self.pivots = _bareiss_local(self._echelon, self._d, width, p)
        self.rank = len(self.pivots)

    @cached_property
    def _transform(self):
        # The second run gives U[r] / e[r] * rows == A[r] / d[r], so row r
        # scaled by d[r] * D / e[r] writes D * A[r].
        A, e = _local_rows(self._rows, self.p)
        _bareiss_local(_with_identity(A, self.width, e), e, self.width, self.p)
        U = _transform_rows(A[: self.rank], self.width, self.nrows)
        D = lcm(*e[: self.rank])
        return [[dr * D // f * x for x in u] for u, f, dr in zip(U, e, self._d)], D

    def _reduce(self, vec):
        """``(N, C, D)`` with ``vec == (N + sum of C[r] * A[r]) / D``, ``N / D``
        its canonical residue: taking ``q / D`` times ``A[r] / d[r]`` off is
        ``(d[r] * N - q * A[r]) / (d[r] * D)``, so ``C[r]`` is ``q``."""
        p = self.p
        N, D = _local_numerators(vec, p)
        C = {}
        for r, c, v in self.pivots:
            x = N[c]
            if not x:
                continue
            pk = p**v
            q = (x - _residue(x, D, pk) * D) // pk
            if q:
                dr = self._d[r]
                if dr != 1:
                    N = [dr * a for a in N]
                    C = {k: dr * a for k, a in C.items()}
                    D *= dr
                for j, y in self._echelon[r].items():
                    N[j] -= q * y
                C[r] = q
        return N, C, D

    def reduce(self, vec):
        """``(N, D)``, ``N / D`` the canonical representative of ``vec``
        modulo the lattice."""
        N, _, D = self._reduce(vec)
        return N, D

    def integer_coordinates(self, vec):
        N, C, D = self._reduce(vec)
        return None if any(N) else (_dense(C, self.rank), D)

    solve = _Lattice.solve


# -- prime fields ------------------------------------------------------


def _add_multiple(dst, a, src, p):
    """``dst += a * src`` mod ``p`` on sparse ``{col: value}`` rows, in place."""
    for j, x in src.items():
        y = (dst.get(j, 0) + a * x) % p
        if y:
            dst[j] = y
        else:
            del dst[j]


def _echelon_mod_p(A, width, p):
    """Sparse reduced row echelon form mod ``p`` of the sparse integer rows ``A``.

    Gauss-Jordan on ``{col: value}`` rows, one input row at a time: the row
    is reduced mod ``p`` and by the echelon rows at its pivot columns; if
    anything is left in the first ``width`` columns, its leading entry is
    scaled to 1 and cleared from every echelon row, so each pivot column
    stays zero outside its own row (Dumas, Saunders & Villard, J. Symbolic
    Comput. 2001, for sparse elimination).

    Returns ``(echelon, kernel)``: ``echelon`` maps each pivot column to its
    row, and ``kernel`` holds the rows left with entries past ``width``
    only.  On rows from ``_with_identity`` these are a basis of the left
    kernel mod ``p``, since row ``i`` enters its own transform with
    coefficient 1 and otherwise only earlier rows do.
    """
    echelon = {}
    kernel = []
    for row in A:
        v = {j: y for j, x in row.items() if (y := x % p)}
        for c in [c for c in v if c in echelon]:
            _add_multiple(v, p - v[c], echelon[c], p)
        if not v:
            continue
        c0 = min(v)
        if c0 >= width:
            kernel.append(v)
            continue
        inv = pow(v[c0], -1, p)
        if inv != 1:
            v = {j: x * inv % p for j, x in v.items()}
        for e in echelon.values():
            f = e.get(c0)
            if f:
                _add_multiple(e, p - f, v, p)
        echelon[c0] = v
    return echelon, kernel


class FieldLattice(_Lattice):
    """Span over F_p of integer rows, in sparse reduced row echelon form mod p.

    ``pivots`` are the pivot columns in increasing order, and row ``k`` of
    ``integer_basis()`` is the echelon row with entry 1 at ``pivots[k]`` and
    0 at every other pivot, with entries in ``[0, p)``.  So the coordinate
    of a vector of the span on that row is its entry at ``pivots[k]``, and
    ``reduce`` clears the pivot entries and reduces the rest into
    ``[0, p)``: the same canonical representative that the Hermite form of
    ``rows + p * I`` gives over Z, whose pivot-1 rows are exactly these rows
    and whose other rows are ``p * e_c``.  The transform (row ``k`` writes
    basis row ``k`` on the original rows, mod p) is needed by ``solve``
    alone, and is built on first read by a second elimination on the rows
    with the identity columns of ``_with_identity``.  Every answer is over
    1, in integers that stand for their classes mod p.
    """

    def __init__(self, rows, width, p):
        self.p = p
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        self._row_at, _ = _echelon_mod_p(map(sparse_row, rows), width, p)
        self.pivots = sorted(self._row_at)
        self._echelon = [self._row_at[c] for c in self.pivots]
        self.rank = len(self.pivots)

    @cached_property
    def _transform(self):
        A = _with_identity([sparse_row(row) for row in self._rows], self.width)
        echelon, _ = _echelon_mod_p(A, self.width, self.p)
        return _transform_rows([echelon[c] for c in self.pivots], self.width, self.nrows), 1

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the span and ``p``, over 1."""
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
        return [x % p for x in res], 1

    def integer_coordinates(self, vec):
        if not self.contains(vec):
            return None
        return [vec[c] % self.p for c in self.pivots], 1


# -- denominator clearing ---------------------------------------------


def cleared_rows(rows):
    """Scale each row by the lcm of its denominators; returns integer rows."""
    return [_cleared(row)[0] for row in rows]


def common_denominator(groups):
    """Groups of ``(row, d)`` pairs as ``(rows, D)``, ``rows[g][i] / D == row / d``."""
    D = lcm(*(d for pairs in groups for _, d in pairs))
    return [
        [row if d == D else [x * (D // d) for x in row] for row, d in pairs] for pairs in groups
    ], D


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


def residue_prime(base, constants):
    """p over F_p, and over Z_(p) when one of the ``constants`` c has
    valuation 1, so that a span holding ``c * Z^width`` holds
    ``p * Z^width`` and is the preimage of its span mod p; else None."""
    if base.kind == PRIME_FIELD:
        return base.p
    if base.kind == INTEGERS_LOCALIZED and any(pval(c, base.p) == 1 for c in constants):
        return base.p
    return None


def lift_rank(lat) -> int:
    """Rank of the integer lattice that ``lat`` stands for.

    A span over F_p stands for its preimage in Z^width, which contains
    ``p * Z^width`` and so has full rank; the other lattices are their own
    lift (over Z/m it already holds ``modulus_rows``).
    """
    return lat.width if isinstance(lat, FieldLattice) else lat.rank


def module_invariants(base, rows, width):
    """``(free rank, factors)`` of ``base^width`` modulo the span of ``rows``.

    The rows are ``int``.  ``factors`` are the sorted invariant factors above
    1 of the quotient, as p-parts over Z_(p), where a row stands for all its
    p-unit multiples, such as ``integer_coordinates`` over any denominator.
    Over F_p a quotient of dimension k has free rank 0 and k factors p, as
    over its integer lift; over Z/m the rows are lifted by ``modulus_rows``.
    """
    if base.kind == PRIME_FIELD:
        return 0, (base.p,) * (width - FieldLattice(rows, width, base.p).rank)
    if base.kind == INTEGERS_LOCALIZED:
        invs = [p_part(v, base.p) for v in snf_invariants(rows)]
    else:
        invs = snf_invariants(rows + modulus_rows(base, width))
    return width - len(invs), tuple(sorted(v for v in invs if v > 1))


def kernel_basis(base, rows, width):
    """Rows spanning the left kernel ``{x : x * rows == 0}`` over ``base``.

    Over Z and Z_(p) (whose rows are integers) it is a basis of the integer
    kernel, read from the transform columns of the Hermite rows past the
    rank; over F_p a basis of the kernel mod p.  Over Z/m the kernel of the
    lift by ``modulus_rows``, cut back to the coordinates of ``rows``,
    generates ``{x : x * rows in m * Z^width}``.
    """
    if base.kind == PRIME_FIELD:
        A = _with_identity([sparse_row(row) for row in rows], width)
        return _transform_rows(_echelon_mod_p(A, width, base.p)[1], width, len(rows))
    A = _with_identity([sparse_row(row) for row in rows + modulus_rows(base, width)], width)
    rank = len(_hermite(A, width))
    return _transform_rows(A[rank:], width, len(rows))


def lattice_intersection_rows(base, rows_a, rows_b, width):
    """Generating rows for the intersection of two row spans over ``base``.

    Over Z/m they generate it together with ``modulus_rows``, which every
    lattice over Z/m adds."""
    if not rows_a or not rows_b:
        return []
    kernel = kernel_basis(base, rows_a + rows_b, width)
    gens = (_row_combination(k, rows_a, [0] * width) for k in kernel)
    return [vec for vec in gens if any(vec)]
