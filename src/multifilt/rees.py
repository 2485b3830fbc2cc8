"""Translation between filtered spaces and graded free modules over k[x].

A filtration F of V corresponds to the module spanned by x^(-level(v)) v
inside V tensored with Laurent polynomials; inverting x recovers all of V.
The inverse direction reads the filtration off by degree thresholds: a
vector lies in F(p) exactly when x^(-p) times it stays inside the module.
So the steps are the spans of the generators of degree at most -p, each the
previous step plus the next degree's generators: they are built by
extending one echelon form of primitive integer rows, a degree at a time,
and each step is that form as it stands after its degree, divided to unit
pivots.  Each step divides only the rows its degree changed and shares the
rest with the step before.
The fiber of the module at x = 0 recovers the associated graded space,
with the grading reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import index, itemgetter

from .filtration import FilteredSpace, GradedVectorSpace, adapted_basis
from .linalg import AmbientMismatch, SparseRow, Vector, _extend_echelon, _nonzeros, _subspace, _unit_row, check_dim, vector


class RankDeficient(ValueError):
    """Generators fail to be independent of full rank."""


_NOT_BASIS = "generators must be independent and of full rank"


@dataclass(frozen=True)
class GradedFreeModule:
    """Free graded module given by generators (v, d) standing for x^d v."""

    ambient_dim: int
    generators: tuple[tuple[Vector, int], ...]

    def __post_init__(self) -> None:
        check_dim(self.ambient_dim)

    @staticmethod
    def of(ambient_dim: int, generators) -> "GradedFreeModule":
        return GradedFreeModule(ambient_dim, tuple((vector(v), index(d)) for v, d in generators))


def rees_construct(fs: FilteredSpace) -> GradedFreeModule:
    """Module generated by x^(-level(v)) v over an adapted basis of F."""
    return GradedFreeModule(fs.dim, tuple((v, -lvl) for v, lvl in adapted_basis(fs)))


def derees(m: GradedFreeModule) -> FilteredSpace:
    """Recover the filtration: F(p) is spanned by generators of degree <= -p.

    Generators join one echelon form of integer rows in order of degree,
    and F(-d) is that form after the generators of degree d, each row
    divided by its pivot.  Only the rows that degree changed are divided
    again; the others keep the rows of the step before.  Independent
    generators make every step strictly larger than the one before, so the
    steps are already normalized.
    """
    n = m.ambient_dim
    if len(m.generators) != n:
        raise RankDeficient(_NOT_BASIS)
    gens = [(d, vector(v)) for v, d in m.generators]
    if any(len(v) != n for _, v in gens):
        raise AmbientMismatch("spanning vector length does not match ambient dimension")
    rows: dict[int, dict[int, int]] = {}
    units: dict[int, SparseRow] = {}
    steps = []
    for d, batch in groupby(sorted(gens, key=itemgetter(0)), key=itemgetter(0)):
        changed = set()
        for _, v in batch:
            new = _extend_echelon(rows, _nonzeros(v))
            if not new:
                raise RankDeficient(_NOT_BASIS)
            changed.update(new)
        for p in changed:
            units[p] = _unit_row(rows[p], p)
        steps.append((-d, _subspace(n, tuple([units[p] for p in sorted(units)]))))
    return FilteredSpace(n, tuple(reversed(steps)))


def fiber_at_zero(m: GradedFreeModule) -> GradedVectorSpace:
    """Weight decomposition of the fiber over x = 0, with grading reversed:
    the piece in degree n counts generators of degree -n."""
    dims: dict[int, int] = {}
    for _, d in m.generators:
        dims[-d] = dims.get(-d, 0) + 1
    return GradedVectorSpace.of(dims)
