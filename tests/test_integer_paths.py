"""The integer elimination against its Fraction references, on randomized
inputs."""

import random
from fractions import Fraction
from math import gcd

from multifilt import homspaces
from multifilt.gl2 import rep_from_label
from multifilt.homspaces import grid_labels, hom_basis, hom_dim, multiplicity
from multifilt.linalg import Mat, Subspace, _extend_echelon, _nonzeros, _unit_row, kernel, rank, rref, subspace_contains, vector
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, builtin_variety
from multifilt.verify import random_filt_object_pair
from reference_paths import reference_extend_echelon, reference_rref, reference_subspace_contains


def _entry(rng: random.Random, style: str) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    if style == "small":
        return Fraction(rng.randint(-3, 3))
    if style == "rational":
        return Fraction(rng.randint(-50, 50), rng.randint(1, 10**6))
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6))


def _random_matrix(rng: random.Random, rows: int, cols: int) -> Mat:
    """Random rows with zero rows, repeated rows, multiples of other rows and
    low-rank blocks mixed in."""
    style = rng.choice(("small", "rational", "huge"))
    base = [[_entry(rng, style) for _ in range(cols)] for _ in range(rng.randint(1, max(rows, 1)))]
    out = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.1:
            out.append([Fraction(0)] * cols)
        elif kind < 0.25 and out:
            out.append(list(rng.choice(out)))
        elif kind < 0.4 and out:
            c = _entry(rng, style) or Fraction(1)
            out.append([c * x for x in rng.choice(out)])
        elif kind < 0.6:
            coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in base]
            out.append([sum((c * row[j] for c, row in zip(coeffs, base)), Fraction(0)) for j in range(cols)])
        else:
            out.append([_entry(rng, style) for _ in range(cols)])
    return Mat(rows, cols, tuple(x for row in out for x in row))


def _matrices(seed: int, count: int) -> list[Mat]:
    rng = random.Random(seed)
    edges = [Mat(0, n, ()) for n in range(4)] + [Mat(n, 0, ()) for n in range(4)]
    return edges + [_random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8)) for _ in range(count)]


MATRICES = _matrices(2024, 560)


def test_rref_equals_fraction_reference():
    for m in MATRICES:
        red, pivots = rref(m)
        assert (red, pivots) == reference_rref(m)
        assert all(type(x) is Fraction for x in red.entries)


def test_kernel_and_rank_add_up():
    for m in MATRICES:
        ker = kernel(m)
        assert ker.dim() + rank(m) == m.cols
        assert rank(m) == len(reference_rref(m)[1])
        for v in ker.basis:
            assert not any(m.matvec(v))


def test_subspace_contains_agrees_with_reference():
    rng = random.Random(7)
    for m in MATRICES:
        s = Subspace.span(m.cols, m.row_list())
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in s.basis]
            member = [sum((c * row[j] for c, row in zip(coeffs, s.basis)), Fraction(0)) for j in range(m.cols)]
            assert subspace_contains(s, member)
            assert reference_subspace_contains(s, member)
            other = [_entry(rng, "rational") for _ in range(m.cols)]
            assert subspace_contains(s, other) == reference_subspace_contains(s, other)
            if s.dim() < m.cols and any(other):
                # a vector off the span: a member plus a unit vector at a non-pivot column
                pivots = {next(j for j, x in enumerate(row) if x) for row in s.basis}
                free = next(j for j in range(m.cols) if j not in pivots)
                outside = [x + (1 if j == free else 0) for j, x in enumerate(member)]
                assert not subspace_contains(s, outside)
                assert not reference_subspace_contains(s, outside)


def _extension_sequence(rng: random.Random, dim: int, style: str) -> list:
    """dim + 2 random vectors of QQ^dim in stored form, with a zero vector
    and then a combination of the vectors before it put in mid-sequence."""

    def entry() -> Fraction:
        kind = rng.choice(("int", "fraction")) if style == "mixed" else style
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9)) if kind == "int" else Fraction(rng.randint(-9, 9), rng.randint(2, 12))

    vecs = [[entry() for _ in range(dim)] for _ in range(dim + 2)]
    mid = len(vecs) // 2
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(mid)]
    dependent = [sum((c * v[j] for c, v in zip(coeffs, vecs)), Fraction(0)) for j in range(dim)]
    vecs[mid:mid] = [[0] * dim, dependent]
    return [_nonzeros(vector(v)) for v in vecs]


def test_extend_echelon_matches_the_fraction_reference_one_vector_at_a_time():
    rng = random.Random(25)
    for dim in range(9):
        for style in ("int", "fraction", "mixed"):
            for _ in range(12):
                rows: dict = {}
                units: dict = {}
                ref: dict = {}
                seq = _extension_sequence(rng, dim, style)
                for v in seq:
                    before = {p: dict(row) for p, row in rows.items()}
                    changed = _extend_echelon(rows, v)
                    assert bool(changed) == reference_extend_echelon(ref, v)
                    if not changed:
                        assert rows == before
                        continue
                    # the new row first, then exactly the rows that differ
                    assert changed[0] not in before
                    assert set(changed) == {changed[0]} | {p for p in before if rows[p] != before[p]}
                    # dividing the changed rows alone gives the reference's rows
                    units.update({p: _unit_row(rows[p], p) for p in changed})
                    assert units == ref
                    for p, row in rows.items():
                        assert min(row) == p and not any(q in row for q in rows if q != p)
                        assert all(type(x) is int for x in row.values()) and gcd(*row.values()) == 1
                assert len(rows) == rank(Mat.from_sparse_rows(seq, dim))


def _sparse_matrix(rng: random.Random, rows: int, cols: int) -> Mat:
    """Random sparse rows at one density in 5-30%, in one entry style, with
    zero rows, repeated rows and rows that combine two earlier ones mixed in."""
    style = rng.choice(("small", "rational", "huge"))
    density = rng.uniform(0.05, 0.3)
    out: list[list[Fraction]] = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.08:
            out.append([Fraction(0)] * cols)
        elif kind < 0.16 and out:
            out.append(list(rng.choice(out)))
        elif kind < 0.3 and out:
            u, w = rng.choice(out), rng.choice(out)
            c, d = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            out.append([c * x + d * y for x, y in zip(u, w)])
        else:
            out.append([(_entry(rng, style) or Fraction(1)) if rng.random() < density else Fraction(0) for _ in range(cols)])
    return Mat(rows, cols, tuple(x for row in out for x in row))


def _sparse_matrices(seed: int, count: int) -> list[Mat]:
    rng = random.Random(seed)
    edges = [Mat(0, n, ()) for n in (0, 1, 30)] + [Mat(n, 0, ()) for n in (1, 40)] + [Mat.zero(40, 30)]
    return edges + [_sparse_matrix(rng, rng.randint(1, 40), rng.randint(1, 30)) for _ in range(count)]


SPARSE_MATRICES = _sparse_matrices(2026, 120)


def test_sparse_rank_rref_and_kernel_match_the_fraction_reference():
    rng = random.Random(11)
    for m in SPARSE_MATRICES:
        ref_red, ref_pivots = reference_rref(m)
        red, pivots = rref(m)
        assert (red, pivots) == (ref_red, ref_pivots)
        assert all(type(x) is Fraction for x in red.entries)
        assert rank(m) == len(ref_pivots)
        ker = kernel(m)
        # a subspace of the reference's kernel dimension inside the kernel is the kernel
        assert ker.dim() == m.cols - len(ref_pivots)
        assert all(not any(m.matvec(v)) for v in ker.basis)
        # the row order is the engine's own choice: permuting rows changes nothing
        p = Mat.from_sparse_rows(rng.sample(m.sparse_rows, m.rows), m.cols)
        assert rref(p) == (red, pivots) and rank(p) == len(pivots) and kernel(p) == ker


def test_every_hom_system_ranks_as_the_fraction_reference(monkeypatch):
    # each rank and kernel call of the Hom solver, with the rank it read
    seen: list[tuple[Mat, int]] = []
    real_rank, real_kernel = homspaces.rank, homspaces.kernel

    def traced_rank(m):
        r = real_rank(m)
        seen.append((m, r))
        return r

    def traced_kernel(m):
        ker = real_kernel(m)
        assert all(not any(m.matvec(v)) for v in ker.basis)
        seen.append((m, m.cols - ker.dim()))
        return ker

    monkeypatch.setattr(homspaces, "rank", traced_rank)
    monkeypatch.setattr(homspaces, "kernel", traced_kernel)
    forms, matrices = builtin_variety(BINARY_QUADRATIC_FORMS), builtin_variety(TWO_BY_TWO_MATRICES)
    for label in grid_labels("GL2", range(0, 9), range(-6, 7)):
        multiplicity(rep_from_label("GL2", label), forms)
    labels = grid_labels("GL2xGL2", range(0, 5), range(-2, 4)) + [((n, 1), (n, 1)) for n in range(13)]
    for label in labels:
        multiplicity(rep_from_label("GL2xGL2", label), matrices)
    rng = random.Random(41)
    for _ in range(60):
        a, b = random_filt_object_pair(rng, max_dim=6)
        hom_dim(a, b)
        hom_basis(a, b)
    assert len(seen) >= 117 + 900 + 13 + 60
    for m, r in seen:
        assert r == len(reference_rref(m)[1]), (m.rows, m.cols)
