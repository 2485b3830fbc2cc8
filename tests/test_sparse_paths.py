"""Sparse matrix storage and the subspace basis check against their dense
references, and the agreement of the ways a subspace is built, on
randomized inputs."""

import random
from fractions import Fraction

import pytest

from multifilt.gl2 import RepData, external_rep
from multifilt.linalg import AmbientMismatch, Mat, Subspace, kernel, kron
from multifilt.varieties import cocharacter_filtration
from reference_paths import DenseMat, dense_kron, reference_check_subspace_basis


def _entry(rng: random.Random, kind: str):
    """Mostly zeros, some of them distinct zero objects; ints or Fractions."""
    if rng.random() < 0.7:
        return 0 if kind == "int" else rng.choice((0, Fraction(0), Fraction(0, 7)))
    x = rng.randint(-5, 5) or 1
    return x if kind == "int" else Fraction(x, rng.randint(1, 4))


def _pair(rng: random.Random, rows: int, cols: int) -> tuple[Mat, DenseMat]:
    kind = rng.choice(("int", "fraction"))
    entries = tuple(_entry(rng, kind) for _ in range(rows * cols))
    return Mat(rows, cols, entries), DenseMat(rows, cols, entries)


def _same(m: Mat, d: DenseMat) -> bool:
    """Equal dense views, and every stored row in canonical form: columns
    strictly increasing within the shape, no zero values."""
    for row in m.sparse_rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(0 <= j < m.cols for j in columns)
        assert all(x for _, x in row)
    return (m.rows, m.cols, len(m.sparse_rows), m.entries) == (d.rows, d.cols, d.rows, d.entries)


def _shapes(rng: random.Random, count: int) -> list[tuple[int, int]]:
    edges = [(0, n) for n in range(4)] + [(n, 0) for n in range(4)]
    return edges + [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(count)]


def test_views_and_arithmetic_match_the_dense_reference():
    rng = random.Random(4)
    shapes = _shapes(rng, 320)
    for rows, cols in shapes:
        m, d = _pair(rng, rows, cols)
        assert _same(m, d)
        assert all(m.row(i) == d.row(i) for i in range(rows))
        assert all(m.at(i, j) == d.at(i, j) for i in range(rows) for j in range(cols))
        assert all(type(x) in (int, Fraction) for x in m.entries)
        assert _same(m.transpose(), d.transpose())
        v = [_entry(rng, "fraction") for _ in range(cols)]
        assert m.matvec(v) == d.matvec(v)

        m2, d2 = _pair(rng, rows, cols)
        assert _same(m + m2, d + d2)
        assert _same(m - m2, d - d2)
        assert _same(m - m, d - d)
        m3, d3 = _pair(rng, cols, rng.randint(0, 5))
        assert _same(m @ m3, d @ d3)
        m4, d4 = _pair(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert _same(kron(m, m4), dense_kron(d, d4))
        assert _same(kron(m4, m), dense_kron(d4, d))


def test_shared_and_identity_factors_match_the_dense_reference():
    rng = random.Random(5)
    for n in range(5):
        ident = DenseMat(n, n, tuple(Fraction(int(i == j)) for i in range(n) for j in range(n)))
        assert _same(Mat.identity(n), ident)
        assert _same(Mat.zero(n, n + 1), DenseMat(n, n + 1, (Fraction(0),) * (n * (n + 1))))
        for _ in range(10):
            m, d = _pair(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert _same(kron(m, Mat.identity(n)), dense_kron(d, ident))
            assert _same(kron(Mat.identity(n), m), dense_kron(ident, d))
            for c in (Fraction(-3, 2), 2, 1, 0):
                assert _same(m.scale(c), DenseMat(d.rows, d.cols, tuple(c * x for x in d.entries)))


def test_equality_and_hash_follow_the_dense_entries():
    rng = random.Random(6)
    shapes = _shapes(rng, 300)
    mats = [_pair(rng, rows, cols) for rows, cols in shapes]
    for (m, d), (m2, d2) in zip(mats, mats[1:] + mats[:1]):
        assert (m == m2) == (d == d2)
        # the same values as ints, as Fractions and as distinct zero objects
        as_fractions = Mat(m.rows, m.cols, tuple(Fraction(x) if x else Fraction(0, 7) for x in d.entries))
        assert as_fractions == m and hash(as_fractions) == hash(m)
        assert Mat.from_rows([d.row(i) for i in range(d.rows)], d.cols) == m
        assert Mat.from_sparse_rows([[(j, x) for j, x in enumerate(d.row(i))] for i in range(d.rows)], d.cols) == m
        if d.entries:
            k = rng.randrange(len(d.entries))
            changed = d.entries[:k] + (d.entries[k] + 1,) + d.entries[k + 1 :]
            assert Mat(m.rows, m.cols, changed) != m
    assert Mat(0, 2, ()) != Mat(0, 3, ()) and Mat(2, 0, ()) != Mat(3, 0, ())


def test_constructors_reject_malformed_input():
    with pytest.raises(ValueError, match="negative matrix shape"):
        Mat(-1, 2, ())
    with pytest.raises(ValueError, match="entry count"):
        Mat(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="negative matrix shape"):
        Mat.identity(-1)
    with pytest.raises(ValueError, match="sparse row columns"):
        Mat.from_sparse_rows([[(1, 1), (0, 2)]], 2)
    with pytest.raises(ValueError, match="sparse row columns"):
        Mat.from_sparse_rows([[(2, 1)]], 2)
    with pytest.raises(AmbientMismatch):
        Mat.zero(2, 2) @ Mat.zero(3, 2)


def _outcome(check):
    try:
        check()
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return "accepted"


def _corrupt(rng: random.Random, basis: list, n: int) -> list:
    basis = [list(row) for row in basis]
    kind = rng.randrange(7)
    if kind == 0 and any(basis):
        row = rng.choice([row for row in basis if row])
        row[rng.randrange(len(row))] = rng.choice((0, 1, 2, Fraction(0, 7), Fraction(7, 7), Fraction(1, 2)))
    elif kind == 1 and len(basis) > 1:
        i, j = rng.sample(range(len(basis)), 2)
        basis[i], basis[j] = basis[j], basis[i]
    elif kind == 2 and basis:
        basis.insert(rng.randrange(len(basis) + 1), list(rng.choice(basis)))
    elif kind == 3:
        basis.insert(rng.randrange(len(basis) + 1), [Fraction(0)] * n)
    elif kind == 4 and basis:
        row = rng.choice(basis)
        if row and rng.random() < 0.5:
            del row[rng.randrange(len(row)) :]
        else:
            row.append(Fraction(0))
    elif kind == 5 and basis:
        # zeros and ones that are equal but not the shared objects
        row = rng.choice(basis)
        for j, x in enumerate(row):
            row[j] = Fraction(0, 7) if x == 0 else Fraction(7, 7) if x == 1 else x
    elif kind == 6 and basis:
        basis[rng.randrange(len(basis))] = [Fraction(x) * 2 for x in rng.choice(basis)]
    return basis


def test_subspace_check_matches_the_entrywise_reference():
    rng = random.Random(8)
    outcomes = set()
    for trial in range(1500):
        n = rng.randint(0, 7)
        if trial % 3 == 0:
            chosen = sorted(rng.sample(range(n), rng.randint(0, n)))
            basis = [[Fraction(int(j == b)) for j in range(n)] for b in chosen]
        else:
            vecs = [[rng.choice((0, 0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)] for _ in range(rng.randint(0, n))]
            basis = [list(row) for row in Subspace.span(n, vecs).basis]
        for _ in range(rng.randint(0, 3)):
            basis = _corrupt(rng, basis, n)
        for rows in (tuple(tuple(r) for r in basis), tuple(basis)):
            expected = _outcome(lambda: reference_check_subspace_basis(n, rows))
            assert _outcome(lambda: Subspace(n, rows)) == expected, (n, rows)
            outcomes.add(expected if expected == "accepted" else expected[0])
    assert outcomes == {"accepted", AmbientMismatch, ValueError, IndexError}


def test_matrix_operators_store_at_most_three_nonzeros_per_row():
    rep = external_rep((12, 1), (12, 1))
    assert rep.dim == 169
    for op in rep.action_ops:
        assert sum(len(row) for row in op.sparse_rows) <= 3 * rep.dim
        assert all(x for row in op.sparse_rows for _, x in row)


def _assert_same_subspace(subspaces):
    """Equal subspaces, however built: ==, equal hashes, and identical
    stored rows and dense basis views, every value a Fraction."""
    first = subspaces[0]
    for s in subspaces:
        assert s == first and hash(s) == hash(first)
        assert s.sparse_rows == first.sparse_rows and s.basis == first.basis
        assert all(type(x) is Fraction for row in s.basis for x in row)
        assert all(len(row) == s.ambient_dim for row in s.basis)


def _mixed(rng: random.Random, rows: list) -> list:
    """A shuffled spanning set of the same row space: each row plus random
    multiples of the rows after it, some rows repeated or scaled."""
    out = []
    for i, row in enumerate(rows):
        combo = list(row)
        for later in rows[i + 1 :]:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            combo = [x + c * y for x, y in zip(combo, later)]
        out.append(combo)
        if rng.random() < 0.3:
            out.append([Fraction(-2) * x for x in combo])
    rng.shuffle(out)
    return out


def test_dense_constructor_span_and_coordinate_flag_agree():
    rng = random.Random(12)
    for _ in range(300):
        dim = rng.randint(0, 8)
        rank_ = rng.randint(1, 3)
        weights = tuple(tuple(rng.randint(-2, 2) for _ in range(rank_)) for _ in range(dim))
        mu = tuple(rng.randint(-2, 2) for _ in range(rank_))
        for _, step in cocharacter_filtration(RepData(dim, weights, ()), mu).steps:
            units = [[int(j == row[0][0]) for j in range(dim)] for row in step.sparse_rows]
            _assert_same_subspace(
                [
                    step,
                    Subspace(dim, units),
                    Subspace(dim, tuple(map(tuple, units))),
                    Subspace.span(dim, _mixed(rng, units)),
                    Subspace.from_sparse_rows(dim, step.sparse_rows),
                ]
            )
    for dim in range(0, 6):
        identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
        _assert_same_subspace(
            [Subspace.zero(dim), Subspace(dim, ()), Subspace.span(dim, []), Subspace.span(dim, [[0] * dim] * 2), kernel(Mat.identity(dim))]
        )
        full = [Subspace.full(dim), Subspace(dim, identity), Subspace.span(dim, _mixed(rng, identity)), kernel(Mat.zero(1, dim))]
        if dim:
            full.append(cocharacter_filtration(RepData(dim, ((0,),) * dim, ()), (1,)).steps[0][1])
        _assert_same_subspace(full)


def test_sparse_constructor_rejects_rows_out_of_echelon_form():
    half = Fraction(1, 2)
    one = Fraction(1)
    with pytest.raises(ValueError, match="zero row"):
        Subspace.from_sparse_rows(2, [((0, one),), ()])
    bad = [
        [((0, Fraction(2)),)],  # leading entry not 1
        [((1, one),), ((0, one),)],  # pivots out of order
        [((0, one), (1, half)), ((1, one),)],  # nonzero in another row's pivot column
        [((0, one), (2, half))],  # column beyond the ambient dimension
        [((0, one), (1, half), (1, half))],  # repeated column
        [((0, one), (1, Fraction(0)))],  # stored zero
        [((0, 1),)],  # value not a Fraction
    ]
    for rows in bad:
        with pytest.raises(ValueError, match="reduced row echelon form"):
            Subspace.from_sparse_rows(2, rows)
