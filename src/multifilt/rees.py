"""Translation between filtered spaces and graded free modules over k[x].

A filtration F of V corresponds to the module spanned by x^(-level(v)) v
inside V tensored with Laurent polynomials; inverting x recovers all of V.
The inverse direction reads the filtration off by degree thresholds: a
vector lies in F(p) exactly when x^(-p) times it stays inside the module.
The fiber of the module at x = 0 recovers the associated graded space,
with the grading reversed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .filtration import FilteredSpace, GradedVectorSpace, adapted_basis, make_filtered
from .linalg import Subspace, Vector, check_dim, vector


class RankDeficient(ValueError):
    """Generators fail to be independent of full rank."""


@dataclass(frozen=True)
class GradedFreeModule:
    """Free graded module given by generators (v, d) standing for x^d v."""

    ambient_dim: int
    generators: tuple[tuple[Vector, int], ...]

    def __post_init__(self) -> None:
        check_dim(self.ambient_dim)

    @staticmethod
    def of(ambient_dim: int, generators) -> "GradedFreeModule":
        return GradedFreeModule(ambient_dim, tuple((vector(v), int(d)) for v, d in generators))


def rees_construct(fs: FilteredSpace) -> GradedFreeModule:
    """Module generated by x^(-level(v)) v over an adapted basis of F."""
    return GradedFreeModule(fs.dim, tuple((v, -lvl) for v, lvl in adapted_basis(fs)))


def derees(m: GradedFreeModule) -> FilteredSpace:
    """Recover the filtration: F(p) is spanned by generators of degree <= -p."""
    vecs = [v for v, _ in m.generators]
    if len(vecs) != m.ambient_dim or Subspace.span(m.ambient_dim, vecs).dim() != m.ambient_dim:
        raise RankDeficient("generators must be independent and of full rank")
    steps = {}
    for d in sorted({d for _, d in m.generators}):
        steps[-d] = Subspace.span(m.ambient_dim, [v for v, dg in m.generators if dg <= d])
    return make_filtered(m.ambient_dim, steps)


def fiber_at_zero(m: GradedFreeModule) -> GradedVectorSpace:
    """Weight decomposition of the fiber over x = 0, with grading reversed:
    the piece in degree n counts generators of degree -n."""
    dims: dict[int, int] = {}
    for _, d in m.generators:
        dims[-d] = dims.get(-d, 0) + 1
    return GradedVectorSpace.of(dims)
