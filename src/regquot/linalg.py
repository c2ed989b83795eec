"""Exact row-style linear algebra over the integers, the p-local integers
and the prime fields.

A lattice is the row span of a list of vectors.  Its canonical form is the
row Hermite normal form over Z (Cohen, GTM 138, section 2.4), an echelon
form with p-power pivots over Z_(p), and the reduced row echelon form mod
p over F_p.  Every row and vector crossing this module's API is sparse, a
``{col: value}`` dict that stores no zero, and each lattice takes the rows
it is given as they are.  The ideal-slice and Koszul rows are nearly empty,
so each elimination step touches only nonzero entries (Dumas, Saunders &
Villard, J. Symbolic Comput. 2001), a pivot column of the p-local and
Smith eliminations visits only the rows nonzero in it (``_column_index``),
and a reduction visits only the pivot columns its vector holds
(``_pivot_walk``).

Every lattice answers in integers over one unit ``D``, 1 over Z, F_p and
Z/m and a p-unit over Z_(p) (``_Lattice`` lists the answers); nothing here
builds a ``Fraction``.  The transform, which ``solve`` needs, is built on
first read by the same elimination on rows that carry the identity as
extra columns past ``width`` (``_with_identity``); ``kernel_basis`` reads
the kernel from those columns too.  ``snf_invariants`` first eliminates
unit pivots, each of which splits off an invariant factor 1.

Rows are ``int``: the ring layer clears each ideal slice and Koszul
differential once, over one p-unit multiple.  ``Fraction`` s with p-unit
denominators arrive only as vectors.  The p-local routines are
fraction-free: each row is an integer vector over one p-unit denominator,
and elimination multiplies rows by p-units (Bareiss-style).

``lattice_for``, ``module_invariants``, ``homology_invariants``,
``kernel_basis`` and ``residue_prime`` are the one place where the base
ring picks the algebra: the p-local lattice and p-parts of the invariant
factors over Z_(p), the field lattice over F_p, and the integer lattice
over Z and over Z/m, whose spans are lifted to Z here by the
``modulus_rows`` m * e_j.  ``residue_prime`` says when a span may be taken
mod p.
"""
from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm

from .errors import SemanticError
from .scalars import INTEGERS_LOCALIZED, INTEGERS_MOD, PRIME_FIELD


def _row_combination(coef, rows):
    """The sum of ``coef[k] * rows[k]`` over the sparse coefficients
    ``coef``, as a sparse row; zero coefficients cost no product."""
    out = {}
    for k, c in coef.items():
        if c:
            for j, x in rows[k].items():
                out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def _columns(row, start, stop):
    """Columns ``start`` to ``stop`` of a sparse row, renumbered from 0."""
    return {j - start: x for j, x in row.items() if start <= j < stop}


def _with_identity(A, width, diag=None):
    """The sparse rows ``A``, each given in place the transform entry 1, or
    ``diag[i]``, at column ``width + i``; the p-local rows take their
    denominators, so that each transform row shares its row's denominator.

    Every elimination here seeks pivots in the first ``width`` columns only,
    so these entries ride along with each row operation, and ``_columns``
    reads them back.  A row left with entries past ``width`` only is a
    kernel vector.

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


def _sub_multiple(dst, q, src):
    """``dst -= q * src`` on sparse ``{col: value}`` rows, in place."""
    for j, x in src.items():
        y = dst.get(j, 0) - q * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _column_index(A, width):
    """``(holders, place)``: ``holders[j]`` the indices of the rows of ``A``
    nonzero in column ``j < width``, and ``place(i, row)`` its update on the
    columns of ``row``, after a step that may change row ``i`` there."""
    holders = {}

    def place(i, row):
        for j in row:
            if j < width:
                (holders.setdefault(j, set()).add if j in A[i] else holders[j].discard)(i)

    for i, row in enumerate(A):
        place(i, row)
    return holders, place


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
    """Row Hermite form of the sparse ``rows``.

    Returns ``(H, T, pivots)``, sparse rows with ``T`` unimodular,
    ``T * rows == H`` and zero rows of ``H`` last, and ``pivots`` a list of
    ``(row, col)`` pairs.  Entries above each pivot are reduced into
    ``[0, pivot)``.  ``T`` rides along as the identity columns of
    ``_with_identity``, so its rows past the rank span the left kernel.
    """
    A = _with_identity([dict(row) for row in rows], width)
    pivots = _hermite(A, width)
    top = width + len(rows)
    return [_columns(row, 0, width) for row in A], [_columns(row, width, top) for row in A], pivots


def _pivot_walk(res, hits):
    """The pivot columns that the sparse ``res`` holds, smallest first,
    while the caller takes an echelon row off ``res`` at each.  An echelon
    row is zero left of its pivot, so a step at ``c`` can fill only the
    pivot columns ``hits[c]`` of its row past ``c``, pushed after it: the
    walk yields the pivots where a loop over all pivots acts, in order."""
    heap = [c for c in res if c in hits]
    heapify(heap)
    last = None
    while heap:
        c = heappop(heap)
        if c != last and res.get(c):
            last = c
            yield c
            for j in hits[c]:
                if j in res:
                    heappush(heap, j)


def _hits(echelon, pivots):
    """``hits`` for ``_pivot_walk`` from the ``(row, col)`` pivots."""
    cols = {c for _, c in pivots}
    return {c: [j for j in echelon[r] if j > c and j in cols] for r, c in pivots}


class _Lattice:
    """The one face of every lattice: integers over one unit ``D``, which
    is 1 over Z, F_p and Z/m.

    Vectors and answers are sparse ``{index: value}`` dicts:

    * ``integer_basis()``: the echelon rows ``_echelon[:rank]``, which no
      caller may change;
    * ``reduce(vec)``: ``(N, D)``, ``N / D`` the canonical residue;
    * ``integer_coordinates(vec)``: ``(C, D)``, ``C / D`` on that basis,
      or None;
    * ``integer_transform()``: ``(t, D)`` with ``t[r] * rows == D *
      basis[r]``, built once, on first read, as ``_transform``;
    * ``solve(vec)``: ``(S, D)``, ``S / D`` on the original rows, or None.
    """

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[0]

    def integer_basis(self):
        return self._echelon[: self.rank]

    def integer_transform(self):
        return self._transform

    def solve(self, vec):
        # vec is C / Dc on the basis, and basis[r] is t[r] / Dt on the rows
        got = self.integer_coordinates(vec)
        if got is None:
            return None
        t, D = self.integer_transform()
        return _row_combination(got[0], t), got[1] * D


class IntLattice(_Lattice):
    """Row span of integer vectors with canonical coset representatives.

    The constructor takes sparse integer rows.  It changes none of them and
    keeps its own list of them, which the transform reads later.  It runs
    ``_hermite`` on a copy and keeps that echelon form and its pivots, which is all that ``reduce``, ``contains`` and
    ``integer_coordinates`` read.  The transform that ``solve`` alone
    needs, the rows of the ``T`` of ``hnf_transform`` up to the rank, is
    built on first read, by a second ``_hermite`` run on the rows with
    identity columns.
    """

    def __init__(self, rows, width):
        self.width = width
        self.nrows = len(rows)
        self._rows = list(rows)
        self._echelon = [dict(row) for row in rows]
        self.pivots = _hermite(self._echelon, width)
        self.rank = len(self.pivots)
        self._row_at = {c: r for r, c in self.pivots}
        self._hits = _hits(self._echelon, self.pivots)

    @cached_property
    def _transform(self):
        width = self.width
        A = _with_identity([dict(row) for row in self._rows], width)
        _hermite(A, width)
        return [_columns(row, width, width + self.nrows) for row in A[: self.rank]], 1

    def _reduce(self, vec):
        """``(res, coef)``: ``vec`` reduced modulo the lattice, and the
        multiple ``coef[r]`` of basis row ``r`` removed."""
        res = dict(vec)
        coef = {}
        for c in _pivot_walk(res, self._hits):
            r = self._row_at[c]
            row = self._echelon[r]
            q = res[c] // row[c]
            if q:
                _sub_multiple(res, q, row)
                coef[r] = q
        return res, coef

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the lattice, over 1."""
        return self._reduce(vec)[0], 1

    def integer_coordinates(self, vec):
        res, coef = self._reduce(vec)
        return None if res else (coef, 1)

    # The benchmark's tracer wraps and restores ``solve`` in the class's own
    # namespace, here and on ``LocalLattice``.
    solve = _Lattice.solve


def _has_unit(row) -> bool:
    return 1 in map(abs, row.values())


def snf_invariants(rows):
    """Invariant factors (positive, each dividing the next) of the span of
    the sparse ``rows``.

    A unit-pivot phase runs first (Dumas, Saunders & Villard, J. Symbolic
    Comput. 2001): while some row has an entry +-1, take the shortest such
    row (the first on ties, kept in a heap keyed by length and position),
    subtract multiples of it from every other row that is nonzero in the
    pivot column (``_column_index``), and drop it.  Once the pivot column is
    clear, column operations clear the rest of the pivot row without
    touching any other row, so each such step splits off one invariant
    factor 1.  The leftover rows, usually none, go to ``_snf_general``.
    """
    A = [dict(row) for row in rows if row]
    # (length, index) of each row that holds a unit, smallest first.  An
    # entry is stale once its row is gone, has changed length or has lost
    # its unit; a row is pushed again whenever an elimination changes it.
    queue = [(len(row), i) for i, row in enumerate(A) if _has_unit(row)]
    heapify(queue)
    holders, place = _column_index(A, inf)
    units = 0
    while queue:
        n, i = heappop(queue)
        pivot = A[i]
        if not pivot or len(pivot) != n or not _has_unit(pivot):
            continue
        A[i] = {}
        place(i, pivot)
        c, u = next((j, x) for j, x in pivot.items() if x in (1, -1))
        for k in list(holders[c]):
            row = A[k]
            _sub_multiple(row, row[c] * u, pivot)
            place(k, pivot)
            if _has_unit(row):
                heappush(queue, (len(row), k))
        units += 1
    return [1] * units + _snf_general([row for row in A if row])


def _snf_general(A):
    """Invariant factors of the sparse integer rows ``A``, destroying ``A``.

    Row Hermite forms of the rows and of the columns alternate until each
    row holds one entry.  A pass makes the first pivot the gcd of its
    column or row, so it shrinks until it divides both and stands alone,
    and then the rest follows.  The diagonal is brought to a divisibility
    chain by gcd and lcm, which keeps the Smith form.
    """
    while True:
        _hermite(A, 1 + max((j for row in A for j in row), default=-1))
        A = [row for row in A if row]
        if all(len(row) == 1 for row in A):
            break
        cols = {}
        for i, row in enumerate(A):
            for j, x in row.items():
                cols.setdefault(j, {})[i] = x
        A = list(cols.values())
    invs = sorted(abs(x) for row in A for x in row.values())
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            g = gcd(invs[i], invs[j])
            invs[i], invs[j] = g, invs[i] * invs[j] // g
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


def _local_numerators(vec, p):
    """``(N, D)`` with the sparse p-local ``vec == N / D``: integer
    numerators over the lcm ``D`` of the denominators, a p-unit.  An
    all-``int`` ``vec`` is copied at once; a vector that is not p-local
    raises ``SemanticError``."""
    if set(map(type, vec.values())) <= {int}:
        return dict(vec), 1
    den = lcm(*(x.denominator for x in vec.values()))
    if den % p == 0:
        bad = next(x for x in vec.values() if x.denominator % p == 0)
        raise SemanticError(
            "denominator of %s is divisible by %d, not %d-local" % (bad, p, p)
        )
    return {j: x.numerator * (den // x.denominator) for j, x in vec.items()}, den


def _stripped(row, d):
    """The sparse ``row`` and ``d`` divided by their common factor."""
    g = gcd(d, *row.values())
    if g == 1:
        return row, d
    return {j: x // g for j, x in row.items()}, d // g


def _local_rows(rows, p):
    """``(A, d)``: each sparse p-local row as fresh integer numerators
    ``A[i]`` over a p-unit denominator ``d[i]``."""
    pairs = [_local_numerators(row, p) for row in rows]
    return [nums for nums, _ in pairs], [den for _, den in pairs]


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

    ``_column_index`` keeps the rows nonzero in each column, as in
    ``snf_invariants``, so a column visits only those rows, in row order.
    """
    m = len(A)
    holders, place = _column_index(A, width)
    pivots = []
    r = 0
    for c in range(width):
        if r == m:
            break
        held = sorted(holders.get(c, ()))
        cand = [(pval(A[i][c], p), i) for i in held if i >= r]
        if not cand:
            continue
        v, i0 = min(cand)
        if i0 != r:
            swapped = A[r], A[i0] = A[i0], A[r]
            d[r], d[i0] = d[i0], d[r]
            for i in (r, i0):
                for row in swapped:
                    place(i, row)
            held = sorted(holders[c])
        pk = p**v
        # E[r] / unit with unit = E[r][c] / p^v is A[r] over A[r][c] / p^v.
        dr = A[r][c] // pk
        if dr < 0:
            A[r] = {j: -x for j, x in A[r].items()}
            dr = -dr
        A[r], d[r] = piv, dr = _stripped(A[r], dr)
        for i in held:
            if i == r:
                continue
            a = A[i][c]
            if i > r:
                q = a // pk
            else:
                q = (a - _residue(a, d[i], pk) * d[i]) // pk
            if q:
                row = A[i] if dr == 1 else {j: dr * x for j, x in A[i].items()}
                _sub_multiple(row, q, piv)
                A[i], d[i] = _stripped(row, d[i] * dr)
                place(i, piv)
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
    columns of ``_with_identity``.  The constructor takes sparse rows and,
    like ``IntLattice``, keeps its own list of them and changes none; their
    values are ``int`` or p-local ``Fraction`` s, and a row with a
    denominator divisible by ``p`` is not p-local and raises
    ``SemanticError``.
    """

    def __init__(self, rows, width, p):
        self.p = p
        self.width = width
        self.nrows = len(rows)
        self._rows = list(rows)
        self._echelon, self._d = _local_rows(rows, p)
        self.pivots = _bareiss_local(self._echelon, self._d, width, p)
        self.rank = len(self.pivots)
        self._row_at = {c: (r, v) for r, c, v in self.pivots}
        self._hits = _hits(self._echelon, [(r, c) for r, c, _ in self.pivots])

    @cached_property
    def _transform(self):
        # The second run gives U[r] / e[r] * rows == A[r] / d[r], so row r
        # scaled by d[r] * D / e[r] writes D * A[r].
        A, e = _local_rows(self._rows, self.p)
        _bareiss_local(_with_identity(A, self.width, e), e, self.width, self.p)
        D = lcm(*e[: self.rank])
        U = [_columns(row, self.width, self.width + self.nrows) for row in A[: self.rank]]
        return [{k: dr * D // f * x for k, x in u.items()} for u, f, dr in zip(U, e, self._d)], D

    def _reduce(self, vec):
        """``(N, C, D)`` with ``vec == (N + sum of C[r] * A[r]) / D``, ``N / D``
        its canonical residue: taking ``q / D`` times ``A[r] / d[r]`` off is
        ``(d[r] * N - q * A[r]) / (d[r] * D)``, so ``C[r]`` is ``q``."""
        p = self.p
        N, D = _local_numerators(vec, p)
        C = {}
        for c in _pivot_walk(N, self._hits):
            r, v = self._row_at[c]
            x = N[c]
            pk = p**v
            q = (x - _residue(x, D, pk) * D) // pk
            if q:
                dr = self._d[r]
                if dr != 1:
                    # in place, as _pivot_walk reads N
                    for j in N:
                        N[j] *= dr
                    for k in C:
                        C[k] *= dr
                    D *= dr
                _sub_multiple(N, q, self._echelon[r])
                C[r] = q
        return N, C, D

    def reduce(self, vec):
        """``(N, D)``, ``N / D`` the canonical representative of ``vec``
        modulo the lattice."""
        N, _, D = self._reduce(vec)
        return N, D

    def integer_coordinates(self, vec):
        N, C, D = self._reduce(vec)
        return None if N else (C, D)

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
    Comput. 2001, for sparse elimination).  ``holders`` indexes the echelon
    rows nonzero in each column, so the clearing visits only those.

    Returns ``(echelon, kernel)``: ``echelon`` maps each pivot column to its
    row, and ``kernel`` holds the rows left with entries past ``width``
    only.  On rows from ``_with_identity`` these are a basis of the left
    kernel mod ``p``, since row ``i`` enters its own transform with
    coefficient 1 and otherwise only earlier rows do.  The rows ``A`` are
    left as they are.
    """
    echelon = {}
    kernel = []
    holders = {}  # non-pivot column < width -> pivots of the echelon rows nonzero there
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
        if v[c0] != 1:
            inv = pow(v[c0], -1, p)
            v = {j: x * inv % p for j, x in v.items()}
        for c in holders.pop(c0, ()):
            e = echelon[c]
            _add_multiple(e, p - e[c0], v, p)
            for j in v:
                if c0 != j < width:
                    (holders.setdefault(j, set()).add if j in e else holders[j].discard)(c)
        echelon[c0] = v
        for j in v:
            if c0 != j < width:
                holders.setdefault(j, set()).add(c0)
    return echelon, kernel


class FieldLattice(_Lattice):
    """Span over F_p of sparse integer rows, in sparse reduced row echelon
    form mod p.

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
        self._rows = list(rows)
        row_at, _ = _echelon_mod_p(rows, width, p)
        self.pivots = sorted(row_at)
        self._echelon = [row_at[c] for c in self.pivots]
        self._index = {c: k for k, c in enumerate(self.pivots)}
        self.rank = len(self.pivots)

    @cached_property
    def _transform(self):
        A = _with_identity([dict(row) for row in self._rows], self.width)
        echelon, _ = _echelon_mod_p(A, self.width, self.p)
        top = self.width + self.nrows
        return [_columns(echelon[c], self.width, top) for c in self.pivots], 1

    def reduce(self, vec):
        """Canonical representative of ``vec`` modulo the span and ``p``, over 1."""
        p, index = self.p, self._index
        res = dict(vec)
        # Each echelon row is 0 at the other pivots, so the multiple of the
        # row at pivot c to take off is the entry of ``vec`` itself there.
        for c, f in vec.items():
            if c in index:
                for j, x in self._echelon[index[c]].items():
                    res[j] = res.get(j, 0) - f * x
        return {j: y for j, x in res.items() if (y := x % p)}, 1

    def integer_coordinates(self, vec):
        if not self.contains(vec):
            return None
        p, index = self.p, self._index
        return {index[c]: y for c, x in vec.items() if c in index and (y := x % p)}, 1


# -- denominator clearing ---------------------------------------------


def cleared_rows(rows):
    """Scale each dense row by the lcm of its denominators; returns integer rows."""
    return [cleared_matrix([row])[0][0] for row in rows]


def common_denominator(groups):
    """Groups of sparse ``(row, d)`` pairs as ``(rows, D)``, ``rows[g][i] / D == row / d``."""
    D = lcm(*(d for pairs in groups for _, d in pairs))
    return [
        [row if d == D else {j: x * (D // d) for j, x in row.items()} for row, d in pairs]
        for pairs in groups
    ], D


def cleared_matrix(rows):
    """Scale the whole dense matrix by one common denominator multiple."""
    mult = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (mult // x.denominator) for x in row] for row in rows], mult


# -- one lattice per base ring ----------------------------------------


def modulus_rows(base, width):
    """The rows ``m * e_j`` that lift a span over Z/m to Z; none over other bases."""
    if base.kind != INTEGERS_MOD:
        return []
    return [{j: base.modulus} for j in range(width)]


def lattice_for(base, rows, width):
    """The span of the sparse ``rows`` over ``base``: a ``LocalLattice``
    over Z_(p), a ``FieldLattice`` over F_p, and an ``IntLattice`` over Z
    and, on the rows lifted by ``modulus_rows``, over Z/m.  Each lattice
    takes the rows themselves, unchanged."""
    if base.kind == PRIME_FIELD:
        return FieldLattice(rows, width, base.p)
    if base.kind == INTEGERS_LOCALIZED:
        return LocalLattice(rows, width, base.p)
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

    The rows are sparse, with ``int`` values.  ``factors`` are the sorted invariant factors above
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


def homology_invariants(base, d_out, d_in, width, out_width):
    """``module_invariants`` of ker(d_out)/im(d_in) on C = ``base^width``, for
    sparse rows with d_out∘d_in = 0 and d_out onto ``base^out_width``; None
    over Z/m.  Over a PID, C/ker is free of rank r = rank d_out, so it is C/im
    with r less free rank (over F_p, r fewer factors p): see ``ideals``."""
    if base.kind != INTEGERS_MOD:
        free, factors = module_invariants(base, d_in, width)
        rank = lattice_for(base, d_out, out_width).rank
        return (0, factors[rank:]) if base.kind == PRIME_FIELD else (free - rank, factors)


def kernel_basis(base, rows, width):
    """Sparse rows spanning the left kernel ``{x : x * rows == 0}`` of the
    sparse ``rows`` over ``base``.

    Over Z and Z_(p) (whose rows are integers) it is a basis of the integer
    kernel, the rows of ``hnf_transform``'s ``T`` past the rank; over F_p a
    basis of the kernel mod p.  Over Z/m the kernel of the lift by
    ``modulus_rows``, cut back to the coordinates of ``rows``, generates
    ``{x : x * rows in m * Z^width}``.
    """
    n = len(rows)
    if base.kind == PRIME_FIELD:
        A = _with_identity([dict(row) for row in rows], width)
        _, kernel = _echelon_mod_p(A, width, base.p)
        return [_columns(row, width, width + n) for row in kernel]
    _, T, pivots = hnf_transform(rows + modulus_rows(base, width), width)
    return [_columns(t, 0, n) for t in T[len(pivots) :]]


def lattice_intersection_rows(base, rows_a, rows_b, width):
    """Sparse generating rows for the intersection of the spans of the
    sparse ``rows_a`` and ``rows_b`` over ``base``: each kernel vector of
    ``rows_a + rows_b``, cut to its coordinates on ``rows_a``, combines
    them.

    Over Z/m they generate it together with ``modulus_rows``, which every
    lattice over Z/m adds."""
    if not rows_a or not rows_b:
        return []
    kernel = kernel_basis(base, rows_a + rows_b, width)
    gens = (_row_combination(_columns(k, 0, len(rows_a)), rows_a) for k in kernel)
    return [vec for vec in gens if vec]
