"""Tests for the integer and p-local lattice routines.

Randomized checks are seeded.  Where an expected value is not forced by
construction it is recomputed through an independent route (fraction RREF
for ranks, cofactor determinants for invariant factor products, explicit
witnesses for membership).
"""
from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

import pytest

from regquot.errors import SemanticError
from regquot.linalg import (
    FieldLattice,
    IntLattice,
    LocalLattice,
    cleared_matrix,
    cleared_rows,
    hnf_transform,
    kernel_basis,
    lattice_for,
    lattice_intersection_rows,
    lift_rank,
    module_invariants,
    modulus_rows,
    p_part,
    pval,
    snf_invariants,
)
from regquot.scalars import BaseRing

ZZ = BaseRing.integers()


def frac_rank(rows, width):
    """Rank over Q by plain Gaussian elimination; independent of hnf code."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(width):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [x / inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def det(rows):
    """Cofactor determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def combo(rows, coeffs):
    width = len(rows[0])
    out = [0] * width
    for q, row in zip(coeffs, rows):
        for j in range(width):
            out[j] += q * row[j]
    return out


def sparse_of(row):
    """A dense row as the ``{col: value}`` dict that the lattices take."""
    return {j: x for j, x in enumerate(row) if x}


def sparse_rows(rows):
    return [sparse_of(row) for row in rows]


def dense_of(row, m):
    """A sparse ``{col: value}`` row as a dense list of length ``m``."""
    assert all(0 <= j < m for j in row) and all(row.values())
    return [row.get(j, 0) for j in range(m)]


def over(got, m):
    """A sparse answer ``(X, D)`` of a lattice's integer face as the dense
    rationals ``X / D`` of length ``m``; None stays None."""
    return None if got is None else [Fraction(x, got[1]) for x in dense_of(got[0], m)]


def dense_hnf(rows, width):
    """``hnf_transform`` on the dense ``rows``, answered as dense rows."""
    H, T, pivots = hnf_transform(sparse_rows(rows), width)
    return [dense_of(h, width) for h in H], [dense_of(t, len(rows)) for t in T], pivots


def fraction_face(lat):
    """``(basis, T)``: the echelon basis of ``lat`` and the transform rows
    writing it on the original rows, as dense ``Fraction`` s read off the
    integer face.  Basis row ``r`` is row ``r`` of ``integer_basis()`` over
    the unit part ``u`` of its pivot, which over Z_(p) leaves the pivot
    ``p^v`` and elsewhere is 1; ``T[r]`` is row ``r`` of
    ``integer_transform()`` over ``D * u``."""
    t, D = lat.integer_transform()
    basis, T = [], []
    for row, tr in zip(lat.integer_basis(), t):
        lead = row[min(row)]
        u = lead // p_part(lead, lat.p) if isinstance(lat, LocalLattice) else 1
        basis.append([Fraction(x, u) for x in dense_of(row, lat.width)])
        T.append([Fraction(x, D * u) for x in dense_of(tr, lat.nrows)])
    return basis, T


def test_hnf_transform_reconstructs_input():
    rng = Random(11)
    for _ in range(40):
        m = rng.randint(1, 4)
        w = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(w)] for _ in range(m)]
        H, T, pivots = dense_hnf(rows, w)
        for i in range(m):
            assert combo(rows, T[i]) == H[i]
        assert abs(det(T)) == 1
        for k, (r, c) in enumerate(pivots):
            assert H[r][c] > 0
            for rr in range(r + 1, m):
                assert H[rr][c] == 0
            for rr in range(r):
                assert 0 <= H[rr][c] < H[r][c]


def test_lattice_solve_returns_exact_witness():
    rng = Random(23)
    for _ in range(60):
        m = rng.randint(1, 4)
        w = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(w)] for _ in range(m)]
        lat = IntLattice(sparse_rows(rows), w)
        coeffs = [rng.randint(-5, 5) for _ in range(m)]
        v = combo(rows, coeffs)
        x, D = lat.solve(sparse_of(v))
        assert D == 1 and combo(rows, dense_of(x, m)) == v
        assert lat.contains(sparse_of(v))


def test_lattice_reduction_is_canonical_on_cosets():
    rng = Random(37)
    for _ in range(60):
        m = rng.randint(1, 3)
        w = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(w)] for _ in range(m)]
        lat = IntLattice(sparse_rows(rows), w)
        v = sparse_of([rng.randint(-9, 9) for _ in range(w)])
        shift = combo(rows, [rng.randint(-4, 4) for _ in range(m)])
        moved = sparse_of([v.get(j, 0) + b for j, b in enumerate(shift)])
        red, D = lat.reduce(v)
        assert D == 1 and lat.reduce(moved) == (red, 1)
        assert lat.reduce(red) == (red, 1)
        assert lat.contains(v) == (lat.solve(v) is not None)


def test_kernel_rows_annihilate_and_count_matches_rank():
    rng = Random(41)
    for _ in range(50):
        m = rng.randint(1, 5)
        w = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(w)] for _ in range(m)]
        ker = kernel_basis(ZZ, sparse_rows(rows), w)
        for x in ker:
            assert combo(rows, dense_of(x, m)) == [0] * w
        assert len(ker) == m - frac_rank(rows, w)


def test_snf_known_values():
    def snf(rows):
        return snf_invariants(sparse_rows(rows))

    assert snf([[2, 4], [6, 8]]) == [2, 4]
    assert snf([[1, 0], [0, 1]]) == [1, 1]
    assert snf([[4, 0], [0, 6]]) == [2, 12]
    assert snf([[16]]) == [16]
    assert snf([[0, 0], [0, 0]]) == []
    assert snf([[2, 0], [0, 2], [0, 0]]) == [2, 2]


def test_snf_divisibility_chain_and_determinant_product():
    rng = Random(53)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        d = det(rows)
        invs = snf_invariants(sparse_rows(rows))
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0
        if d != 0:
            prod = 1
            for x in invs:
                prod *= x
            assert prod == abs(d)
            flat = [x for row in rows for x in row if x]
            g = 0
            for x in flat:
                g = gcd(g, x)
            assert invs[0] == g


def test_intersection_contains_common_vectors():
    rng = Random(67)
    for _ in range(40):
        w = rng.randint(1, 4)
        rows_a = [[rng.randint(-4, 4) for _ in range(w)] for _ in range(rng.randint(1, 3))]
        rows_b = [[rng.randint(-4, 4) for _ in range(w)] for _ in range(rng.randint(1, 3))]
        inter = lattice_intersection_rows(ZZ, sparse_rows(rows_a), sparse_rows(rows_b), w)
        lat_a = IntLattice(sparse_rows(rows_a), w)
        lat_b = IntLattice(sparse_rows(rows_b), w)
        lat_i = IntLattice(inter, w)
        for g in inter:
            assert lat_a.contains(g) and lat_b.contains(g)
        v = sparse_of(combo(rows_a, [rng.randint(-3, 3) for _ in rows_a]))
        if lat_b.contains(v):
            assert lat_i.contains(v)


def test_pval_and_p_part():
    assert pval(12, 2) == 2
    assert pval(Fraction(9, 4), 3) == 2
    assert pval(Fraction(1, 3), 3) == -1
    assert pval(0, 5) is None
    assert p_part(360, 2) == 8
    assert p_part(360, 3) == 9
    assert p_part(7, 2) == 1


def test_local_lattice_saturates_units():
    # over Z_(2) the row (3) spans everything, the row (6) spans 2*Z_(2)
    lat3 = LocalLattice(sparse_rows([[3]]), 1, 2)
    assert lat3.contains({0: 1})
    assert over(lat3.reduce({0: 1}), 1) == [0]
    lat6 = LocalLattice(sparse_rows([[6]]), 1, 2)
    assert over(lat6.reduce({0: 5}), 1) == [1]
    # 1/3 is 3 mod 2 * Z_(2) times the unit 3, and 3 * 3 = 9 is 1 mod 8
    assert over(lat6.reduce({0: Fraction(1, 3)}), 1) == [1]
    assert over(LocalLattice(sparse_rows([[8]]), 1, 2).reduce({0: Fraction(1, 3)}), 1) == [3]
    assert lat6.contains({0: Fraction(2, 3)})
    assert not lat6.contains({0: Fraction(1, 3)})


def test_local_lattice_solve_witness():
    rng = Random(79)
    for _ in range(40):
        m = rng.randint(1, 3)
        w = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        rows = []
        for _ in range(m):
            row = []
            for _ in range(w):
                den = rng.choice([1, 1, 3, 5, 7])
                while den % p == 0:
                    den = rng.choice([3, 5, 7, 11])
                row.append(Fraction(rng.randint(-6, 6), den))
            rows.append(row)
        lat = LocalLattice(sparse_rows(rows), w, p)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        v = [sum((q * row[j] for q, row in zip(coeffs, rows)), Fraction(0)) for j in range(w)]
        x = over(lat.solve(sparse_of(v)), m)
        assert x is not None
        got = [sum((q * row[j] for q, row in zip(x, rows)), Fraction(0)) for j in range(w)]
        assert got == v
        for q in x:
            assert pval(q, p) is None or pval(q, p) >= 0


def test_local_lattice_reduction_canonical():
    rng = Random(83)
    for _ in range(40):
        p = rng.choice([2, 3])
        w = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(w)] for _ in range(m)]
        lat = LocalLattice(sparse_rows(rows), w, p)
        v = [Fraction(rng.randint(-9, 9)) for _ in range(w)]
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        shift = [
            sum((q * row[j] for q, row in zip(coeffs, rows)), Fraction(0)) for j in range(w)
        ]
        moved = [a + b for a, b in zip(v, shift)]
        red = over(lat.reduce(sparse_of(v)), w)
        assert over(lat.reduce(sparse_of(moved)), w) == red
        assert over(lat.reduce(sparse_of(red)), w) == red


def test_cleared_rows_and_matrix():
    rows = [[Fraction(1, 3), Fraction(2)], [Fraction(1, 2), Fraction(0)]]
    assert cleared_rows(rows) == [[1, 6], [1, 0]]
    ints, mult = cleared_matrix(rows)
    assert mult == 6
    assert ints == [[2, 12], [3, 0]]


# -- oracle for the fraction-free p-local lattice ----------------------


def ref_pval(x, p):
    x = Fraction(x)
    if x == 0:
        return None
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_residue(x, p, k):
    pk = p**k
    if pk == 1:
        return 0
    fr = Fraction(x)
    return fr.numerator * pow(fr.denominator, -1, pk) % pk


class RefLocalLattice:
    """Valuation-pivoted echelon form over Z_(p) computed in ``Fraction`` s.

    This is the straightforward rational elimination; ``LocalLattice`` must
    reproduce its pivots, rows, reductions and solutions exactly.
    """

    def __init__(self, rows, width, p):
        self.p = p
        self.nrows = len(rows)
        E = [[Fraction(x) for x in row] for row in rows]
        m = len(E)
        U = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        pivots = []
        r = 0
        for c in range(width):
            if r == m:
                break
            cand = [(ref_pval(E[i][c], p), i) for i in range(r, m) if E[i][c] != 0]
            if not cand:
                continue
            v, i0 = min(cand)
            if i0 != r:
                E[r], E[i0] = E[i0], E[r]
                U[r], U[i0] = U[i0], U[r]
            pk = Fraction(p) ** v
            unit = E[r][c] / pk
            E[r] = [x / unit for x in E[r]]
            U[r] = [x / unit for x in U[r]]
            for i in range(m):
                if i == r or E[i][c] == 0:
                    continue
                if i > r:
                    q = E[i][c] / pk
                else:
                    q = (E[i][c] - ref_residue(E[i][c], p, v)) / pk
                if q:
                    E[i] = [a - q * b for a, b in zip(E[i], E[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            pivots.append((r, c, v))
            r += 1
        self.E, self.U, self.pivots = E, U, pivots

    def _reduce_with_coeffs(self, vec):
        res = [Fraction(x) for x in vec]
        coeffs = [Fraction(0)] * len(self.E)
        for r, c, v in self.pivots:
            x = res[c]
            if x == 0:
                continue
            q = (x - ref_residue(x, self.p, v)) / Fraction(self.p) ** v
            if q:
                res = [a - q * b for a, b in zip(res, self.E[r])]
                coeffs[r] = q
        return res, coeffs

    def reduce(self, vec):
        return self._reduce_with_coeffs(vec)[0]

    def solve(self, vec):
        res, coeffs = self._reduce_with_coeffs(vec)
        if any(res):
            return None
        out = [Fraction(0)] * self.nrows
        for r, q in enumerate(coeffs):
            if q:
                for j in range(self.nrows):
                    out[j] += q * self.U[r][j]
        return out


def local_entry(rng, p):
    """A p-local rational: often zero, often carrying a power of p, with a
    p-unit denominator."""
    if rng.random() < 0.25:
        return 0
    num = rng.randint(-9, 9) * p ** rng.choice([0, 0, 0, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3, 5, 7, 9, 11, 25])
    while den % p == 0:
        den = rng.choice([1, 7, 11, 13])
    return Fraction(num, den) if den > 1 or rng.random() < 0.5 else num


def local_matrix(rng, p):
    m, w = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[local_entry(rng, p) for _ in range(w)] for _ in range(m)]
    for i in range(1, m):
        if rng.random() < 0.3:
            # a dependent row: a Z_(p)-combination of earlier rows
            coeffs = [local_entry(rng, p) for _ in range(i)]
            rows[i] = [
                sum((Fraction(q) * row[j] for q, row in zip(coeffs, rows)), Fraction(0))
                for j in range(w)
            ]
    return rows, w


def test_local_lattice_matches_fraction_oracle():
    # The rows fed sparse through lattice_for, against the Fraction oracle;
    # the kernel of the cleared rows against the dense augmented Hermite form.
    rng = Random(97)
    for _ in range(2400):
        p = rng.choice([2, 3, 5])
        rows, w = local_matrix(rng, p)
        base = BaseRing.integers_localized(p)
        lat = lattice_for(base, sparse_rows(rows), w)
        ref = RefLocalLattice(rows, w, p)
        assert type(lat) is LocalLattice
        assert lat.pivots == ref.pivots
        assert "_transform" not in vars(lat)
        assert fraction_face(lat) == (ref.E[: lat.rank], ref.U[: lat.rank])
        for _ in range(3):
            if rng.random() < 0.5:
                coeffs = [local_entry(rng, p) for _ in rows]
                vec = [
                    sum((Fraction(q) * row[j] for q, row in zip(coeffs, rows)), Fraction(0))
                    for j in range(w)
                ]
            else:
                vec = [local_entry(rng, p) for _ in range(w)]
            want = ref.solve(vec)
            assert over(lat.reduce(sparse_of(vec)), w) == ref.reduce(vec)
            assert over(lat.solve(sparse_of(vec)), len(rows)) == want
            assert lat.contains(sparse_of(vec)) == (want is not None)
        ints = cleared_rows(rows)
        _, T, pivots = ref_hnf_augmented(ints, w)
        ker = kernel_basis(base, sparse_rows(ints), w)
        assert [dense_of(x, len(rows)) for x in ker] == T[len(pivots) :]


def test_local_lattice_rejects_rows_that_are_not_p_local():
    lat = LocalLattice(sparse_rows([[Fraction(1, 3), 2]]), 2, 2)
    assert lat.contains({0: 1, 1: 6})
    with pytest.raises(SemanticError) as err:
        LocalLattice(sparse_rows([[1, 0], [Fraction(3, 4), 1]]), 2, 2)
    with pytest.raises(SemanticError) as scalar_err:
        BaseRing.integers_localized(2).normalize(Fraction(3, 4))
    assert str(err.value) == str(scalar_err.value)
    assert str(err.value) == "denominator of 3/4 is divisible by 2, not 2-local"


def test_integer_quotient_route_matches_cleared_fraction_coordinates():
    """``_lattice_quotient`` hands the integer coordinates of each relation,
    without their p-unit denominators, to the Smith form; the reference
    writes each relation on the ``Fraction`` echelon basis with the fraction
    oracle and clears those rows one by one with ``cleared_rows``.  The
    p-parts must agree, at every rank, 0 included."""
    from regquot.ideals import ModuleEntry, _lattice_quotient

    rng = Random(1504)
    unit_dens = escaped = nontrivial = 0
    for _ in range(600):
        p = rng.choice([2, 3, 5])
        rows, w = local_matrix(rng, p)
        lat = LocalLattice(sparse_rows(rows), w, p)
        base = BaseRing.integers_localized(p)
        b_rows = [
            [
                sum((Fraction(q) * row[j] for q, row in zip(coeffs, rows)), Fraction(0))
                for j in range(w)
            ]
            for coeffs in ([local_entry(rng, p) for _ in rows] for _ in range(rng.randint(0, 4)))
        ]
        on_basis = RefLocalLattice(fraction_face(lat)[0], w, p).solve
        cleared = cleared_rows(map(on_basis, b_rows))
        invs = [p_part(v, p) for v in snf_invariants(sparse_rows(cleared))]
        entry = ModuleEntry(lat.rank - len(invs), tuple(sorted(v for v in invs if v > 1)))
        assert _lattice_quotient(lat, sparse_rows(b_rows), base) == entry
        nontrivial += bool(entry.factors)
        sols, unit = lat.integer_transform()
        assert unit % p and len(sols) == lat.rank
        basis = [dense_of(a, w) for a in lat.integer_basis()]
        for sol, a in zip(sols, basis):
            assert combo(rows, dense_of(sol, len(rows))) == [unit * x for x in a]
        for b in b_rows:
            C, D = lat.integer_coordinates(sparse_of(b))
            assert D > 0 and D % p and all(type(c) is int for c in C.values())
            unit_dens += D != 1
            got = combo(basis, dense_of(C, lat.rank)) if basis else [0] * w
            assert [Fraction(x, D) for x in got] == b
        stranger = sparse_of([local_entry(rng, p) for _ in range(w)])
        if not lat.contains(stranger):
            assert lat.integer_coordinates(stranger) is None
            escaped += 1
            with pytest.raises(SemanticError):
                _lattice_quotient(lat, sparse_rows(b_rows) + [stranger], base)
    assert unit_dens >= 500 and escaped >= 200, (unit_dens, escaped)
    assert nontrivial >= 100, nontrivial


def test_cleared_helpers_match_fraction_reference():
    rng = Random(101)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        rows, _ = local_matrix(rng, p)
        expected_rows = []
        for row in rows:
            mult = 1
            for x in row:
                den = Fraction(x).denominator
                mult = mult * den // gcd(mult, den)
            expected_rows.append([int(Fraction(x) * mult) for x in row])
        assert cleared_rows(rows) == expected_rows
        mult = 1
        for row in rows:
            for x in row:
                den = Fraction(x).denominator
                mult = mult * den // gcd(mult, den)
        assert cleared_matrix(rows) == (
            [[int(Fraction(x) * mult) for x in row] for row in rows],
            mult,
        )


# -- oracles for the unit-pivot Smith form and the lazy transform -------


class RefSnf:
    """Invariant factors by smallest-entry Smith elimination on dense rows.

    This is the elimination without a unit-pivot phase, which rescans the
    whole matrix at every pivot; ``snf_invariants`` must reproduce its
    ``invariants`` list exactly.
    """

    def __init__(self, rows):
        A = [list(map(int, row)) for row in rows if any(row)]
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
                            A[i] = [a - q * b for a, b in zip(A[i], A[0])]
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
        self.invariants = invs


def determinantal_invariants(rows):
    """Invariant factors ``d_k / d_(k-1)``, where ``d_k`` is the gcd of all
    k x k minors and the rank is the largest k with ``d_k != 0``."""
    m, n = len(rows), len(rows[0])
    invs, prev = [], 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                dk = gcd(dk, det([[rows[i][j] for j in cs] for i in rs]))
        if dk == 0:
            break
        invs.append(dk // prev)
        prev = dk
    return invs


def int_matrix(rng, max_rows, max_cols, entries):
    """A seeded integer matrix with some zero rows and some rows that are
    integer combinations of earlier rows."""
    m, w = rng.randint(1, max_rows), rng.randint(1, max_cols)
    rows = [[rng.choice(entries) for _ in range(w)] for _ in range(m)]
    for i in range(m):
        roll = rng.random()
        if roll < 0.1:
            rows[i] = [0] * w
        elif roll < 0.3 and i:
            coeffs = [rng.randint(-2, 2) for _ in range(i)]
            rows[i] = combo(rows[:i], coeffs)
    return rows, w


def test_snf_matches_determinantal_divisors():
    rng = Random(127)
    mixed = 0
    for _ in range(250):
        # units and non-units together, so both phases of the elimination run
        rows, _ = int_matrix(rng, 5, 5, [0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9])
        invs = snf_invariants(sparse_rows(rows))
        assert invs == determinantal_invariants(rows)
        mixed += 1 in invs and any(x > 1 for x in invs)
    assert mixed >= 25


def test_snf_matches_reference_elimination():
    rng = Random(131)
    for k in range(1200):
        big = k % 12 == 0
        rows, _ = int_matrix(
            rng, 40 if big else 10, 30 if big else 8, [0] * 8 + [1, -1, 1, 2, -2, 3, -4, 6]
        )
        assert snf_invariants(sparse_rows(rows)) == RefSnf(rows).invariants


def ref_hnf_transform(rows, width):
    """Row Hermite form with a separately carried transform, the eager
    form that ``hnf_transform``, ``kernel_basis`` and the transform of
    ``IntLattice`` must reproduce."""
    m = len(rows)
    A = [[int(x) for x in row] for row in rows]
    T = [[int(i == j) for j in range(m)] for i in range(m)]

    def sub(i, j, q):
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        T[i] = [a - q * b for a, b in zip(T[i], T[j])]

    pivots = []
    r = 0
    for c in range(width):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            A[r], A[i0] = A[i0], A[r]
            T[r], T[i0] = T[i0], T[r]
            for i in range(r + 1, m):
                q = A[i][c] // A[r][c]
                if q:
                    sub(i, r, q)
            if not any(A[i][c] for i in range(r + 1, m)):
                break
        if not nz:
            continue
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            T[r] = [-x for x in T[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                sub(i, r, q)
        pivots.append((r, c))
        r += 1
    return A, T, pivots


def ref_solve(H, T, pivots, vec):
    res = list(vec)
    coeffs = [0] * len(H)
    for r, c in pivots:
        q = res[c] // H[r][c]
        res = [a - q * b for a, b in zip(res, H[r])]
        coeffs[r] = q
    if any(res):
        return None
    return combo(T, coeffs)


def test_lazy_transform_matches_eager_hermite_form():
    rng = Random(137)
    for _ in range(400):
        rows, w = int_matrix(rng, 6, 6, list(range(-5, 6)) + [0] * 4)
        H, T, pivots = ref_hnf_transform(rows, w)
        m = len(rows)
        assert dense_hnf(rows, w) == (H, T, pivots)
        assert [dense_of(k, m) for k in kernel_basis(ZZ, sparse_rows(rows), w)] == T[len(pivots) :]
        lat = IntLattice(sparse_rows(rows), w)
        assert lat.integer_basis() == [sparse_of(H[r]) for r, _ in pivots]
        assert lat.pivots == pivots
        assert "_transform" not in vars(lat)
        for _ in range(3):
            if rng.random() < 0.5:
                vec = combo(rows, [rng.randint(-3, 3) for _ in rows])
            else:
                vec = [rng.randint(-9, 9) for _ in range(w)]
            assert over(lat.solve(sparse_of(vec)), m) == ref_solve(H, T, pivots, vec)
        t, D = lat.integer_transform()
        assert ([dense_of(x, m) for x in t], D) == (T[: len(pivots)], 1)


def test_hermite_reduce_is_canonical_under_unimodular_row_operations():
    rng = Random(139)
    for _ in range(400):
        rows, w = int_matrix(rng, 6, 6, list(range(-5, 6)) + [0] * 4)
        moved = [list(row) for row in rows]
        m = len(moved)
        for _ in range(rng.randint(1, 10) if m > 1 else 0):
            i, j = rng.sample(range(m), 2)
            roll = rng.random()
            if roll < 0.6:
                q = rng.choice([-3, -2, -1, 1, 2, 3])
                moved[i] = [a + q * b for a, b in zip(moved[i], moved[j])]
            elif roll < 0.8:
                moved[i], moved[j] = moved[j], moved[i]
            else:
                moved[i] = [-a for a in moved[i]]
        lat, other = IntLattice(sparse_rows(rows), w), IntLattice(sparse_rows(moved), w)
        assert other.integer_basis() == lat.integer_basis()
        for _ in range(3):
            vec = sparse_of([rng.randint(-12, 12) for _ in range(w)])
            assert other.reduce(vec) == lat.reduce(vec)


def test_coordinates_match_second_lattice_route():
    """``integer_coordinates``, as ``C / D``, against a second lattice over
    ``integer_basis()`` and ``solve`` on that lattice's rows.  The second
    lattice is the test-local eager Hermite form over Z and the fraction
    oracle over Z_(p), so neither side shares elimination code with the
    other."""
    rng = Random(149)
    inside = outside = 0
    for k in range(2000):
        if k % 4 == 0:
            rows, w = int_matrix(rng, 6, 6, list(range(-5, 6)) + [0] * 4)
            lat = IntLattice(sparse_rows(rows), w)
            if lat.rank:
                H, T, pivots = ref_hnf_transform([dense_of(b, w) for b in lat.integer_basis()], w)
                ref = lambda vec: ref_solve(H, T, pivots, vec)
            else:
                ref = lambda vec: None if any(vec) else []

            def member():
                return combo(rows, [rng.randint(-3, 3) for _ in rows])

            def stranger():
                return [rng.randint(-9, 9) for _ in range(w)]
        else:
            p = rng.choice([2, 3, 5])
            rows, w = local_matrix(rng, p)
            lat = LocalLattice(sparse_rows(rows), w, p)
            ref = RefLocalLattice([dense_of(b, w) for b in lat.integer_basis()], w, p).solve

            def member():
                coeffs = [local_entry(rng, p) for _ in rows]
                return [
                    sum((Fraction(q) * row[j] for q, row in zip(coeffs, rows)), Fraction(0))
                    for j in range(w)
                ]

            def stranger():
                return [local_entry(rng, p) for _ in range(w)]
        for _ in range(4):
            vec = member() if rng.random() < 0.5 else stranger()
            want = ref(vec)
            got = over(lat.integer_coordinates(sparse_of(vec)), lat.rank)
            assert (got is None) == (want is None)
            if got is None:
                outside += 1
                continue
            inside += 1
            assert got == want
            total = [Fraction(0)] * w
            for c, row in zip(got, lat.integer_basis()):
                total = [t + c * x for t, x in zip(total, dense_of(row, w))]
            assert total == [Fraction(x) for x in vec]
    assert inside > 2500 and outside > 1500


# -- the sparse integer lattice against the dense elimination --------------


def ref_hermite(A, width):
    """The dense Hermite elimination that ``_hermite`` must repeat step for
    step on sparse rows: reduces the dense integer rows ``A`` in place and
    returns the ``(row, col)`` pivots."""
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
                        A[i] = [a - q * b for a, b in zip(A[i], A[r])]
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
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def ref_hnf_augmented(rows, width):
    """``hnf_transform`` on dense rows, carrying ``T`` as ``m`` extra dense
    columns that start from the identity."""
    m = len(rows)
    A = []
    for i, row in enumerate(rows):
        aug = list(row) + [0] * m
        aug[len(row) + i] = 1
        A.append(aug)
    pivots = ref_hermite(A, width)
    return [row[:-m] for row in A], [row[-m:] for row in A], pivots


class ref_IntLattice:
    """The dense ``IntLattice``: Hermite rows as full-width lists, each
    reduction step a full-width subtraction, and the transform ``T`` from
    the augmented dense elimination."""

    def __init__(self, rows, width):
        self.width = width
        self.nrows = len(rows)
        self._rows = rows
        self.H = [list(row) for row in rows]
        self.pivots = ref_hermite(self.H, width)
        self.rank = len(self.pivots)
        self.T = ref_hnf_augmented(rows, width)[1]

    def basis(self):
        return [self.H[r] for r, _ in self.pivots]

    def _reduce(self, vec, coef=None):
        res = vec
        for r, c in self.pivots:
            q = res[c] // self.H[r][c]
            if q:
                res = [a - q * b for a, b in zip(res, self.H[r])]
                if coef is not None:
                    coef[r] = q
        return res

    def reduce(self, vec):
        return self._reduce(vec)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        coef = [0] * self.rank
        res = self._reduce(vec, coef)
        return None if any(res) else coef

    def solve(self, vec):
        coef = self.coordinates(vec)
        if coef is None:
            return None
        out = [0] * self.nrows
        for c, row in zip(coef, self.T):
            out = [a + c * b for a, b in zip(out, row)]
        return out


def lattice_matrix(rng):
    """Seeded integer rows of one of three kinds, with the kind's name:
    sparse +-1 rows shaped like Koszul differentials (one to three entries a
    row, also wider than the other kinds), dense rows with entries up to
    +-30, and rows over Z/m that ``modulus_rows`` lifts to Z.  Rows are
    sometimes zero or repeated, and there are sometimes no rows or no
    columns."""
    kind = rng.choice(["koszul", "koszul", "dense", "Z/m"])
    if kind == "koszul":
        m, w = rng.randint(0, 24), rng.randint(0, 18)
        rows = [[0] * w for _ in range(m)]
        for row in rows:
            for j in rng.sample(range(w), min(w, rng.randint(1, 3))):
                row[j] = rng.choice([1, -1])
    else:
        m, w = rng.randint(0, 7), rng.randint(0, 7)
        top = 30 if kind == "dense" else 12
        rows = [[rng.randint(-top, top) for _ in range(w)] for _ in range(m)]
    roll = rng.random()
    if roll < 0.2 and m:
        rows[rng.randrange(m)] = [0] * w
    elif roll < 0.4 and m > 1:
        rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
    return rows, w, kind


def test_int_lattice_matches_dense_reference():
    # The rows fed sparse through lattice_for, against the dense reference.
    rng = Random(163)
    cases = set()
    for _ in range(1500):
        rows, w, kind = lattice_matrix(rng)
        base = BaseRing.integers_mod(rng.choice([4, 6, 9])) if kind == "Z/m" else ZZ
        lift = rows + [dense_of(row, w) for row in modulus_rows(base, w)]
        n = len(lift)
        H, T, pivots = ref_hnf_augmented(lift, w)
        assert dense_hnf(lift, w) == (H, T, pivots)
        ker = kernel_basis(base, sparse_rows(rows), w)
        assert [dense_of(k, len(rows)) for k in ker] == [t[: len(rows)] for t in T[len(pivots) :]]
        lat, ref = lattice_for(base, sparse_rows(rows), w), ref_IntLattice(lift, w)
        assert type(lat) is IntLattice and lat.nrows == n
        assert (lat.pivots, lat.rank) == (ref.pivots, ref.rank)
        assert (ref.H, ref.pivots) == (H, pivots)
        assert [dense_of(b, w) for b in lat.integer_basis()] == ref.basis()
        assert "_transform" not in vars(lat)
        for _ in range(4):
            if rng.random() < 0.5:
                vec = combo(lift, [rng.randint(-3, 3) for _ in lift]) if lift else [0] * w
            else:
                vec = [rng.randint(-40, 40) for _ in range(w)]
            sv = sparse_of(vec)
            assert lat.reduce(sv) == (sparse_of(ref.reduce(vec)), 1)
            assert lat.contains(sv) == ref.contains(vec)
            assert over(lat.integer_coordinates(sv), lat.rank) == ref.coordinates(vec)
            assert over(lat.solve(sv), n) == ref.solve(vec)
        t, D = lat.integer_transform()
        assert ([dense_of(x, n) for x in t], D) == (ref.T[: ref.rank], 1)
        assert ref.T == T
        assert snf_invariants(sparse_rows(lift)) == RefSnf(lift).invariants
        cases.add(kind)
        cases.add("width 0" if w == 0 else "no rows" if not lift else "rows")
        if w and [0] * w in rows:
            cases.add("zero row")
        if len(rows) > len(set(map(tuple, rows))):
            cases.add("repeated row")
        if lat.rank < len(lift):
            cases.add("dependent")
    assert cases == {
        "koszul", "dense", "Z/m", "width 0", "no rows", "rows", "zero row", "repeated row",
        "dependent",
    }


# -- the sparse Hermite and Smith eliminations, on wide sparse rows --------


def wide_sparse_matrix(rng):
    """Seeded rows, 20 to 40 of them over 20 to 40 columns, about one entry
    in ten nonzero.  The entries take few sizes and both signs, so the
    smallest entry of a column is often tied and often negative; half the
    matrices hold no unit, so the Smith form leaves its unit-pivot phase at
    once.  A few rows are empty, and a few are combinations of earlier rows,
    which leave entries above the pivots."""
    m, w = rng.randint(20, 40), rng.randint(20, 40)
    entries = rng.choice([[1, -1, 2, -2, 2, -3, 4], [2, -2, 2, -3, 3, 4, -6, 9]])
    rows = [[rng.choice(entries) if rng.random() < 0.1 else 0 for _ in range(w)] for _ in range(m)]
    for i in rng.sample(range(m), 4):
        if rng.random() < 0.5:
            rows[i] = [0] * w
        elif i:
            rows[i] = combo(rows[:i], [rng.choice([0] * 6 + [1, -1, 2]) for _ in range(i)])
    return rows, w


def test_sparse_elimination_matches_dense_reference_on_wide_sparse_rows():
    # The sparse row operations of _hermite and the column index of
    # snf_invariants' unit pivots skip the zero cells and rows that the
    # dense references visit.
    rng = Random(181)
    cases = set()
    for _ in range(80):
        rows, w = wide_sparse_matrix(rng)
        m = len(rows)
        H, T, pivots = ref_hnf_augmented(rows, w)
        assert dense_hnf(rows, w) == (H, T, pivots)
        assert [dense_of(k, m) for k in kernel_basis(ZZ, sparse_rows(rows), w)] == T[len(pivots) :]
        lat = IntLattice(sparse_rows(rows), w)
        assert lat.pivots == pivots
        assert lat.integer_basis() == [sparse_of(H[r]) for r, _ in pivots]
        t, D = lat.integer_transform()
        assert ([dense_of(x, m) for x in t], D) == (T[: len(pivots)], 1)
        assert snf_invariants(sparse_rows(rows)) == RefSnf(rows).invariants
        for c in range(w):
            column = [x for row in rows if (x := row[c])]
            least = min(map(abs, column), default=0)
            if sum(abs(x) == least for x in column) > 1:
                cases.add("tied")
            if -least in column:
                cases.add("negative")
        if [0] * w in rows:
            cases.add("empty row")
        if any(H[i][c] for r, c in pivots for i in range(r)):
            cases.add("above")
        if not any(abs(x) == 1 for row in rows for x in row):
            cases.add("no unit")
    assert cases == {"tied", "negative", "empty row", "above", "no unit"}


# -- the field lattice against the padded integer lattice ------------------


def padded_ref(rows, w, p):
    """The integer route that F_p slices took before the field lattice:
    the rows plus ``p * e_j`` for every column, as one dense
    ``ref_IntLattice``, so that no integer lattice code is shared."""
    return ref_IntLattice(rows + [[p if j == k else 0 for k in range(w)] for j in range(w)], w)


def field_matrix(rng, p):
    """Seeded integer rows with zero rows, repeated rows and entries outside
    ``[0, p)``; sometimes no rows, width 0 or a full-rank block."""
    w = rng.choice([0, 1, 2, 3, 4, 5, 6])
    m = rng.choice([0, 1, 2, 3, 4, 5, 6, 7])
    entries = list(range(-2 * p, 2 * p + 1)) + [0] * (2 * p)
    rows = [[rng.choice(entries) for _ in range(w)] for _ in range(m)]
    roll = rng.random()
    if roll < 0.15 and rows:
        rows[rng.randrange(m)] = [0] * w
    elif roll < 0.3 and len(rows) > 1:
        rows[rng.randrange(m)] = [x + p * rng.randint(-2, 2) for x in rows[0]]
    elif roll < 0.45:
        rows += [[int(i == j) + p * rng.randint(-1, 1) for j in range(w)] for i in range(w)]
        rng.shuffle(rows)
    return rows, w


def combo_mod(rows, coeffs, w, p):
    """``sum coeffs[i] * rows[i]`` mod ``p``, also for no rows."""
    out = [0] * w
    for q, row in zip(coeffs, rows):
        out = [(a + q * b) % p for a, b in zip(out, row)]
    return out


def ref_echelon_mod_p(rows, width, p):
    """The reduced row echelon form mod ``p`` with the transform kept in a
    separate ``{row: coef}`` dict per row, the form that the transform of
    ``FieldLattice`` and the F_p ``kernel_basis`` must reproduce.  Returns ``(echelon,
    kernel)``: ``echelon`` maps each pivot column to ``(row, transform)``,
    and ``kernel`` holds the transforms of the rows that reduce to zero."""

    def add_multiple(dst, a, src):
        for j, x in src.items():
            y = (dst.get(j, 0) + a * x) % p
            if y:
                dst[j] = y
            else:
                del dst[j]

    echelon = {}
    kernel = []
    for i, row in enumerate(rows):
        v = {j: row[j] % p for j in range(width) if row[j] % p}
        t = {i: 1}
        for c in [c for c in v if c in echelon]:
            f = p - v[c]
            e, te = echelon[c]
            add_multiple(v, f, e)
            add_multiple(t, f, te)
        if not v:
            kernel.append(t)
            continue
        c0 = min(v)
        inv = pow(v[c0], -1, p)
        v = {j: x * inv % p for j, x in v.items()}
        t = {j: x * inv % p for j, x in t.items()}
        for e, te in echelon.values():
            f = e.get(c0)
            if f:
                add_multiple(e, p - f, v)
                add_multiple(te, p - f, t)
        echelon[c0] = (v, t)
    return echelon, kernel


def test_field_lattice_matches_padded_integer_lattice():
    # The rows fed sparse, against the padded dense integer lattice.
    rng = Random(151)
    cases = set()
    for _ in range(1500):
        p = rng.choice([2, 3, 5])
        base = BaseRing.prime_field(p)
        rows, w = field_matrix(rng, p)
        m = len(rows)
        lat, ref = lattice_for(base, sparse_rows(rows), w), padded_ref(rows, w, p)
        assert type(lat) is FieldLattice
        assert lift_rank(base, lat.rank, w) == ref.rank == w
        basis = [dense_of(b, w) for b in lat.integer_basis()]
        # the Hermite rows with pivot 1 are the echelon rows, the rest p * e_c
        assert basis == [ref.H[r] for r, c in ref.pivots if ref.H[r][c] == 1]
        assert [c for r, c in ref.pivots if ref.H[r][c] == p] == [
            c for c in range(w) if c not in lat.pivots
        ]
        factors = tuple(sorted(v for v in RefSnf(ref.H).invariants if v > 1))
        got = module_invariants(base, sparse_rows(rows), w)
        assert got == (0, factors) == (0, (p,) * (w - lat.rank))
        echelon, kernel = ref_echelon_mod_p(rows, w, p)
        assert lat.pivots == sorted(echelon)
        assert lat.integer_basis() == [echelon[c][0] for c in lat.pivots]
        assert "_transform" not in vars(lat)
        T, D = lat.integer_transform()
        assert (T, D) == ([echelon[c][1] for c in lat.pivots], 1)
        ker = kernel_basis(base, sparse_rows(rows), w)
        assert ker == kernel
        assert len(T) == lat.rank
        for t, row in zip(T, basis):
            assert combo_mod(rows, dense_of(t, m), w, p) == row
        for _ in range(4):
            if rng.random() < 0.5:
                vec = combo(rows, [rng.randint(-p, p) for _ in rows]) if rows else [0] * w
            else:
                vec = [rng.randint(-2 * p, 2 * p) for _ in range(w)]
            sv = sparse_of(vec)
            red, D = lat.reduce(sv)
            assert D == 1 and dense_of(red, w) == ref.reduce(vec)
            assert all(0 < x < p for x in red.values())
            inside = lat.contains(sv)
            assert inside == ref.contains(vec)
            coef, sol = lat.integer_coordinates(sv), lat.solve(sv)
            if not inside:
                assert coef is None and sol is None
                continue
            (coef, c_den), (sol, s_den) = coef, sol
            assert c_den == s_den == 1
            assert combo_mod(basis, dense_of(coef, lat.rank), w, p) == [x % p for x in vec]
            assert combo_mod(rows, dense_of(sol, m), w, p) == [x % p for x in vec]
        assert len(ker) == m - lat.rank
        for x in ker:
            assert all(0 < c < p for c in x.values())
            assert combo_mod(rows, dense_of(x, m), w, p) == [0] * w
        # the padded kernel, cut back to the rows, spans the same space mod p
        span = FieldLattice(ker, m, p)
        assert span.rank == len(ker)
        _, T, pivots = ref_hnf_augmented(ref._rows, w)
        for x in T[len(pivots) :]:
            assert span.contains(sparse_of(x[:m]))
        cases.add(p)
        cases.add("width 0" if w == 0 else "no rows" if m == 0 else "rows")
        if w and lat.rank == w:
            cases.add("full rank")
        if [0] * w in rows and w:
            cases.add("zero row")
        if lat.rank < m:
            cases.add("dependent")
    assert cases == {2, 3, 5, "width 0", "no rows", "rows", "full rank", "zero row", "dependent"}


def test_field_intersection_spans_the_common_subspace():
    rng = Random(157)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        base = BaseRing.prime_field(p)
        rows_a, w = field_matrix(rng, p)
        rows_b = [[rng.randint(0, p - 1) for _ in range(w)] for _ in range(rng.randint(0, 5))]
        rows_a, rows_b = sparse_rows(rows_a), sparse_rows(rows_b)
        inter = lattice_intersection_rows(base, rows_a, rows_b, w)
        lat_a, lat_b = FieldLattice(rows_a, w, p), FieldLattice(rows_b, w, p)
        for g in inter:
            assert lat_a.contains(g) and lat_b.contains(g)
        # dim(A ∩ B) = dim A + dim B - dim(A + B)
        total = FieldLattice(rows_a + rows_b, w, p).rank
        assert FieldLattice(inter, w, p).rank == lat_a.rank + lat_b.rank - total


def test_snf_without_unit_entries_matches_reference():
    # No entry is +-1, so the unit-pivot phase finds nothing at first and
    # the alternating Hermite passes of _snf_general do the work.
    rng = Random(173)
    for k in range(300):
        rows, _ = int_matrix(rng, 7, 6, [0] * 6 + [2, -2, 3, 4, -6, 9, 10, -15])
        assert snf_invariants(sparse_rows(rows)) == RefSnf(rows).invariants
