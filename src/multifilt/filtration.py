"""Finite decreasing filtrations of rational vector spaces.

A filtration F assigns to every integer i a subspace F(i) of a fixed
space, with F(i) containing F(i+1), F(i) the full space for small i and
zero for large i.  Storage is sparse: each distinct nonzero subspace is
recorded once, at the largest index where it still holds, so the stored
indices are exactly the indices i with F(i) != F(i+1) and nonzero F(i).
Queries at other indices fill in by that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Mapping

from .linalg import AmbientMismatch, Mat, Subspace, Vector, check_dim, subspace_sum


class NotDecreasing(ValueError):
    """Some step of the filtration fails to contain the next one."""


class NotExhaustive(ValueError):
    """No index at which the filtration equals the full space."""


@dataclass(frozen=True)
class GradedVectorSpace:
    """Integer-graded vector space recorded by the dimensions of its pieces."""

    pieces: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = None
        for n, d in self.pieces:
            if d <= 0:
                raise ValueError("graded pieces must have positive dimension")
            if last is not None and n <= last:
                raise ValueError("graded pieces must be sorted by degree")
            last = n

    @staticmethod
    def of(dims: Mapping[int, int]) -> "GradedVectorSpace":
        return GradedVectorSpace(tuple(sorted((n, d) for n, d in dims.items() if d != 0)))

    def dimension(self, n: int) -> int:
        return dict(self.pieces).get(n, 0)

    def total(self) -> int:
        return sum(d for _, d in self.pieces)


@dataclass(frozen=True, slots=True)
class FilteredSpace:
    """Sparse normalized filtration.

    make_filtered builds one from arbitrary steps; direct construction must
    already be normalized.  The checks here are O(steps): int indices,
    ambient dimensions, strictly increasing indices, strictly decreasing
    nonzero step dimensions and a full first step.  Nestedness is the
    caller's promise (make_filtered checks it), so equal normalized
    filtrations compare equal.
    """

    dim: int
    steps: tuple[tuple[int, Subspace], ...]

    def __post_init__(self) -> None:
        check_dim(self.dim)
        for idx, sub in self.steps:
            if type(idx) is not int:
                raise TypeError(f"filtration index {idx!r} is not an int")
            if sub.ambient_dim != self.dim:
                raise AmbientMismatch(f"step has ambient dimension {sub.ambient_dim}, expected {self.dim}")
            if sub.dim() == 0:
                raise ValueError(f"zero step stored at index {idx}")
        for (i, hi), (j, lo) in zip(self.steps, self.steps[1:]):
            if j <= i:
                raise ValueError(f"step indices {i}, {j} are not strictly increasing")
            if lo.dim() >= hi.dim():
                raise ValueError(f"F({j}) is not strictly smaller than F({i})")
        if self.dim > 0 and (not self.steps or not self.steps[0][1].is_full()):
            raise NotExhaustive("filtration never equals the full space")

    def at(self, i: int) -> Subspace:
        """F(i): the value stored at the smallest index >= i, else zero."""
        for idx, sub in self.steps:
            if idx >= i:
                return sub
        return Subspace.zero(self.dim)

    def jumps(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.steps)


def make_filtered(dim: int, steps: Mapping[int, Subspace]) -> FilteredSpace:
    """Validate and normalize a filtration given on a finite set of indices.

    Indices are read as ints with operator.index, so a bool is stored as
    its int and a float or Fraction index raises TypeError.  Raises
    AmbientMismatch, NotDecreasing or NotExhaustive, and ValueError for a
    negative dimension.
    """
    items = sorted([(index(i), sub) for i, sub in steps.items()])
    for _, sub in items:
        if sub.ambient_dim != dim:
            raise AmbientMismatch(f"step has ambient dimension {sub.ambient_dim}, expected {dim}")
    for (i, hi), (j, lo) in zip(items, items[1:]):
        if not hi.contains_subspace(lo):
            raise NotDecreasing(f"F({i}) does not contain F({j})")
    # Keep each distinct subspace at its largest index; drop the zero tail.
    normalized: list[tuple[int, Subspace]] = []
    for idx, sub in items:
        if normalized and normalized[-1][1] == sub:
            normalized[-1] = (idx, sub)
        else:
            normalized.append((idx, sub))
    while normalized and normalized[-1][1].dim() == 0:
        normalized.pop()
    return FilteredSpace(dim, tuple(normalized))


def is_filtration_morphism(f: Mat, src: FilteredSpace, dst: FilteredSpace) -> bool:
    """True iff f(F_src(i)) lies inside F_dst(i) for every integer i.

    Only the source's jumps are checked.  Below its next jump j, or past
    its last one, F_src(i) equals F_src(j) (or zero), and F_dst is
    decreasing, so f(F_src(i)) = f(F_src(j)) lies in F_dst(j), inside
    F_dst(i)."""
    if f.cols != src.dim or f.rows != dst.dim:
        raise AmbientMismatch(f"map shape {f.rows}x{f.cols} does not match {dst.dim}x{src.dim}")
    image = f.transpose()
    for i, step in src.steps:
        # row k of basis @ f^T is f applied to basis vector k
        if not dst.at(i).contains_rows(step.basis_matrix() @ image):
            return False
    return True


def associated_graded(fs: FilteredSpace) -> GradedVectorSpace:
    """Dimensions of the successive quotients F(n)/F(n+1)."""
    dims = {}
    for t, (idx, sub) in enumerate(fs.steps):
        below = fs.steps[t + 1][1].dim() if t + 1 < len(fs.steps) else 0
        dims[idx] = sub.dim() - below
    return GradedVectorSpace.of(dims)


def adapted_basis(fs: FilteredSpace) -> tuple[tuple[Vector, int], ...]:
    """Basis vectors tagged with their level max{p : v in F(p)}.

    Processes steps from the top of the filtration down, extending the basis
    found so far by echelon-basis vectors of the next step, earliest pivot
    first.  For every i, the vectors of level >= i form a basis of F(i).
    """
    chosen: list[tuple[Vector, int]] = []
    span = Subspace.zero(fs.dim)
    for idx, sub in reversed(fs.steps):
        for row in sub.sparse_rows:
            line = Mat.from_sparse_rows([row], fs.dim)
            if not span.contains_rows(line):
                chosen.append((line.row(0), idx))
                span = subspace_sum(span, Subspace.row_space(line))
    return tuple(chosen)
