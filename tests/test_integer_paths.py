"""The integer elimination against its Fraction references, on randomized
inputs."""

import random
from fractions import Fraction

from multifilt.linalg import Mat, Subspace, kernel, rank, rref, subspace_contains
from reference_paths import reference_rref, reference_subspace_contains


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
