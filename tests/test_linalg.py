import random
from fractions import Fraction

import pytest

from multifilt import linalg
from multifilt.gl2 import GroupActionData, RepData
from multifilt.linalg import (
    AmbientMismatch,
    Mat,
    Subspace,
    frac,
    kernel,
    kron,
    rank,
    rref,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from reference_paths import reference_annihilator
from test_stored_form import _assert_sorted_fractions


def test_rref_identity():
    m = Mat.identity(2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    r, pivots = rref(Mat.from_rows([[2, 4], [1, 2]]))
    assert r == Mat.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_zero():
    m = Mat.zero(2, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == ()


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        r, _ = rref(m)
        assert rref(r)[0] == r


def test_kernel_identity_and_zero():
    assert kernel(Mat.identity(3)) == Subspace.zero(3)
    assert kernel(Mat.zero(2, 3)) == Subspace.full(3)


def test_kernel_line():
    assert kernel(Mat.from_rows([[1, 1]])) == Subspace.span(2, [[1, -1]])


def test_kernel_dimension_law_random():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert kernel(m).dim() + rank(m) == cols
        for v in kernel(m).basis:
            assert all(x == 0 for x in m.matvec(v))


def test_subspace_idempotence():
    a = Subspace.span(3, [[1, 2, 3], [0, 1, 1]])
    assert subspace_sum(a, a) == a
    assert subspace_intersect(a, a) == a


def test_subspace_sum_full():
    e1 = Subspace.span(2, [[1, 0]])
    e2 = Subspace.span(2, [[0, 1]])
    assert subspace_sum(e1, e2) == Subspace.full(2)


def test_subspace_intersect_trivial():
    diag = Subspace.span(2, [[1, 1]])
    e1 = Subspace.span(2, [[1, 0]])
    assert subspace_intersect(diag, e1) == Subspace.zero(2)


def test_subspace_contains():
    s = Subspace.span(3, [[1, 0, 1], [0, 1, 1]])
    assert subspace_contains(s, [1, 1, 2])
    assert not subspace_contains(s, [0, 0, 1])
    with pytest.raises(AmbientMismatch):
        subspace_contains(s, [1, 0])


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))
    with pytest.raises(AmbientMismatch):
        subspace_intersect(Subspace.full(2), Subspace.full(3))


def test_containment_checks_the_ambient_of_an_empty_input():
    # no row to reduce is still a question about vectors of another length
    with pytest.raises(AmbientMismatch):
        Subspace.full(3).contains_subspace(Subspace.zero(5))
    with pytest.raises(AmbientMismatch):
        Subspace.full(3).contains_rows(Mat.zero(0, 5))
    assert Subspace.full(3).contains_rows(Mat.zero(0, 3))
    assert Subspace.zero(3).contains_subspace(Subspace.zero(3))


def _random_subspace(rng, dim):
    nvecs = rng.randint(0, dim)
    return Subspace.span(dim, [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(nvecs)])


def test_modular_dimension_law_random():
    rng = random.Random(13)
    for _ in range(100):
        dim = rng.randint(1, 5)
        a = _random_subspace(rng, dim)
        b = _random_subspace(rng, dim)
        assert a.dim() + b.dim() == subspace_sum(a, b).dim() + subspace_intersect(a, b).dim()


def test_canonicality_random():
    # different spanning sets of the same space give identical representations
    rng = random.Random(17)
    for _ in range(50):
        dim = rng.randint(1, 5)
        a = _random_subspace(rng, dim)
        mixed = []
        for _ in range(2 * len(a.basis) + 1):
            coeffs = [rng.randint(-2, 2) for _ in a.basis]
            mixed.append([sum(c * row[j] for c, row in zip(coeffs, a.basis)) for j in range(dim)])
        regenerated = Subspace.span(dim, mixed)
        assert regenerated.dim() <= a.dim()
        if regenerated.dim() == a.dim():
            assert regenerated == a


def test_frac_shares_zero_and_one_with_kron():
    assert frac(0) is linalg._ZERO and frac(1) is linalg._ONE
    # bool inputs read as the ints they equal, as before the shared table
    assert frac(False) is linalg._ZERO and frac(True) is linalg._ONE
    # kron copies the other factor's entry where one factor's entry is the
    # shared one, and an integer 1 read through frac is that shared one
    m = Mat.from_rows([[Fraction(2, 3), 5]])
    assert all(x is y for x, y in zip(kron(Mat.from_rows([[1]]), m).entries, m.entries))


def test_frac_table_and_beyond_give_equal_fractions():
    for i in range(-300, 301):
        x = frac(i)
        assert type(x) is Fraction and x == i and x.denominator == 1
        # inside the table every call returns the one shared object
        assert (frac(i) is x) == (-256 <= i <= 256)
    for big in (10**30, -(10**30)):
        assert frac(big) == big and type(frac(big)) is Fraction
    assert frac("3") == 3 and frac("-2/4") == Fraction(-1, 2) and frac(Fraction(2, 6)) == Fraction(1, 3)
    for bad in (0.5, None, [1]):
        with pytest.raises(TypeError, match="cannot interpret"):
            frac(bad)


def test_frac_reads_subclasses_and_names_what_it_rejects():
    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    # an int subclass reads as the int it equals, shared inside the table
    assert frac(Count(7)) is frac(7) and frac(Count(0)) is linalg._ZERO
    big = frac(Count(10**20))
    assert type(big) is Fraction and big == 10**20
    # a Fraction subclass is returned as it is
    r = Ratio(3, 4)
    assert frac(r) is r
    assert frac(" -6/8 ") == Fraction(-3, 4) and frac("5") == 5
    with pytest.raises(ValueError):
        frac("1.5e")
    for bad in (0.5, 1.0, None):
        with pytest.raises(TypeError) as err:
            frac(bad)
        assert str(err.value) == f"cannot interpret {bad!r} as a rational number"


def test_dense_subspace_basis_rejects_floats_as_frac_does():
    for basis in ([[1, 0.1]], [[1, 0.0]], [[1.0, 0]], [[1, None]]):
        with pytest.raises(TypeError, match="cannot interpret"):
            Subspace(2, basis)
    # ints, strings and Fractions are still read exactly
    assert Subspace(2, [[1, "1/3"]]) == Subspace(2, [[Fraction(1), Fraction(1, 3)]]) == Subspace.span(2, [[3, 1]])


def test_negative_dimensions_are_rejected():
    for build in (
        lambda: Subspace(-1, []),
        lambda: Subspace.from_sparse_rows(-1, []),
        lambda: Subspace.span(-1, []),
        lambda: Subspace.zero(-2),
        lambda: Subspace.full(-1),
        lambda: GroupActionData(-1, ()),
        lambda: RepData(-1, (), ()),
    ):
        with pytest.raises(ValueError, match="^dimension -[12] is negative$"):
            build()
    with pytest.raises(ValueError, match="negative matrix shape"):
        Mat.from_rows([], cols=-1)
    # dimension 0 is a space, with one subspace
    assert Subspace(0, []) == Subspace.span(0, []) == Subspace.zero(0) == Subspace.full(0)
    assert Mat.from_rows([], cols=0) == Mat.zero(0, 0)


def _annihilator_cases(rng):
    """Subspaces of QQ^0..QQ^7: zero, full, coordinate, and spans of dense
    integer and dense rational vectors."""
    for n in range(8):
        yield Subspace.zero(n)
        yield Subspace.full(n)
    rationals = [0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4)]
    for _ in range(320):
        n = rng.randint(0, 7)
        k = rng.randint(0, n)
        kind = rng.randrange(3)
        if kind == 0:
            vecs = [[1 if j == c else 0 for j in range(n)] for c in rng.sample(range(n), k)]
        elif kind == 1:
            vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        else:
            vecs = [[rng.choice(rationals) for _ in range(n)] for _ in range(k)]
        yield Subspace.span(n, vecs)


def test_annihilator_rows_are_read_off_the_echelon_rows():
    seen = set()
    for s in _annihilator_cases(random.Random(19)):
        n = s.ambient_dim
        ann = s.annihilator_matrix()
        assert (ann.rows, ann.cols) == (n - s.dim(), n)
        _assert_sorted_fractions(ann)
        # it kills the basis and spans the reference's annihilator
        assert all(not any(row) for row in (s.basis_matrix() @ ann.transpose()).sparse_rows)
        ref = reference_annihilator(s)
        assert Subspace.row_space(ann) == Subspace.from_sparse_rows(n, ref.sparse_rows)
        # among the non-pivot columns, row k is the unit vector at the k-th
        pivots = {row[0][0] for row in s.sparse_rows}
        free = [c for c in range(n) if c not in pivots]
        assert [[(j, x) for j, x in row if j not in pivots] for row in ann.sparse_rows] == [[(c, 1)] for c in free]
        seen.add("zero" if s.dim() == 0 else "full" if s.is_full() else "proper")
    assert seen == {"zero", "full", "proper"}
