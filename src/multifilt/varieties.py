"""Boundary cocharacter data and the filtrations it induces.

A cocharacter mu pairs integrally with torus weights; on a representation
it induces the decreasing filtration

    F(i) = span of the weight spaces with -<mu, weight> >= i.

Representations are given in a weight basis, so every step is the
coordinate subspace of the basis indices whose pairing clears the
threshold: the filtration is a coordinate flag and is built directly,
with no elimination.

Boundary cocharacters are inputs here, never derived: the two built-in
examples carry them explicitly, together with the weights of the ambient
module (used by the character oracle) and a stabilizer recipe (used by the
Hom solver).

Conventions pinned by the built-ins (printed by the CLI as well):

* The coordinate ring of a module U in degree d is the d-th symmetric
  power of the dual module, i.e. of U with all weights negated.
* Binary quadratic forms: the ambient module carries weights (-2, 0),
  (-1, -1), (0, -2), so its dual is the (2, 0) irreducible.  Boundary
  cocharacter (1, 0).  The stabilizer of the base form is the full
  orthogonal stabilizer: the torus t -> [[t, 1/t - t], [0, 1/t]] together
  with a determinant -1 reflection (see gl2.stabilizer_action_binary_forms).
* 2x2 matrices: the module is taken in the contragradient model, weights
  (-1, 0, -1, 0), (-1, 0, 0, -1), (0, -1, -1, 0), (0, -1, 0, -1), whose
  dual is the external product of the two standard representations.  The
  stabilizer of the identity matrix is then the twisted diagonal
  {(g, transpose-inverse of g)}, a connected copy of GL2, realized on a
  product representation by pairing each factor operator with minus the
  transposed operator of the other factor.  Three constraints are written:
  the raising pair e x 1 - 1 x f and the two torus pairs.  The lowering
  pair f x 1 - 1 x e adds no condition.  A map f intertwines the pairs of
  two such objects exactly when it is fixed by the group acting on
  Hom(V, W), a rational representation of the connected GL2.  There, a
  vector of torus weight zero that the raising operator kills is a
  highest-weight vector of weight zero, so it spans a trivial summand and
  the lowering operator kills it too (Fulton-Harris, Representation
  Theory, section 11).  The constraints are written from the label on
  request (see gl2._OnRequest): each row is written in stored form (see
  linalg._mat) when the solver first reads it, and kept, so a cell writes
  only the rows at the coordinates its solve keeps, each once.  The torus
  pairs are diagonal and carry their eigenvalues, the weight differences,
  which the Hom solver reads without reading a row; e x 1 - 1 x f has at
  most two nonzeros per row.  Boundary cocharacter (1, 1, 0, -1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import index, mul
from typing import Callable, Mapping, Sequence

from .filtration import FilteredSpace
from .gl2 import (
    GROUP_FACTORS,
    GroupActionData,
    H_STYLE_LIE_PLUS_ELEMENTS,
    H_STYLES,
    RepData,
    Weight,
    _OnRequest,
    external_rep,
    irrep_gl2,
    label_factors,
    stabilizer_action_binary_forms,
)
from .linalg import _SMALL, Mat, SparseRow, _mat, _subspace

Cocharacter = tuple[int, ...]

BINARY_QUADRATIC_FORMS = "BinaryQuadraticForms"
TWO_BY_TWO_MATRICES = "TwoByTwoMatrices"
CUSTOM = "Custom"

# Forward references by name: typing caches subscripted aliases with strong
# references to their arguments, which would keep every re-imported copy of
# these classes (and through them the whole package) alive.
StabilizerRecipe = Callable[["RepData", str], "GroupActionData"]


def pairing(mu: Cocharacter, chi: Weight) -> int:
    """Integral pairing of a cocharacter with a weight (dot product)."""
    if len(mu) != len(chi):
        raise ValueError(f"cocharacter length {len(mu)} does not match weight length {len(chi)}")
    return sum(a * b for a, b in zip(mu, chi))


def cocharacter_filtration(rep: RepData, mu: Cocharacter) -> FilteredSpace:
    """The filtration F(i) = sum of weight spaces with -<mu, weight> >= i.

    The basis is a weight basis, so every step is a coordinate subspace and
    its unit vectors, in index order, are already its canonical echelon
    basis.  Each attained value is a jump, because its own basis vectors
    leave the step above it.  All steps share the unit rows ((b, 1),), so a
    step costs one entry per basis vector, and is built as it stands, with
    no echelon check.
    """
    dim = rep.dim
    # RepData does not check that its weights share one length, so one
    # comparison over all of them stands in for pairing's check per weight
    if any(len(chi) != len(mu) for chi in rep.weights):
        pairing(mu, next(chi for chi in rep.weights if len(chi) != len(mu)))  # raises
    neg = tuple([-a for a in mu])
    values = [sum(map(mul, neg, chi)) for chi in rep.weights]
    units = Mat.identity(dim).sparse_rows
    steps = tuple([(v, _subspace(dim, tuple([units[b] for b in range(dim) if values[b] >= v]))) for v in sorted(set(values))])
    return FilteredSpace(dim, steps)


@dataclass(frozen=True)
class VarietySpec:
    """An affine fixed-pointed spherical example, given by its data.

    ``x_module_weights`` are the torus weights of the ambient module itself;
    the character oracle negates them to form the coordinate ring.  The
    ``stabilizer`` recipe produces equivariance constraints for any
    representation over the group; ``boundary_cocharacters`` may be empty,
    in which case objects degenerate to plain representations.

    The trivial representation, and its object in each constraint style
    (see homspaces.multiplicity), are the same for every cell, so each is
    built on first use and kept on the instance.
    """

    name: str
    group: str
    rank: int
    boundary_cocharacters: tuple[Cocharacter, ...]
    x_module_weights: tuple[Weight, ...]
    stabilizer: StabilizerRecipe = field(compare=False)
    # the trivial rep under None and its objects under their styles; kept per
    # instance, never per equal spec: == ignores the stabilizer recipe
    _trivial: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"torus rank {self.rank} is negative")
        factors = GROUP_FACTORS.get(self.group)
        if factors is not None and self.rank != 2 * factors:
            raise ValueError(f"group {self.group} has torus rank {2 * factors}, not {self.rank}")
        for mu in self.boundary_cocharacters:
            if len(mu) != self.rank:
                raise ValueError("cocharacter length does not match the torus rank")
        for w in self.x_module_weights:
            if len(w) != self.rank:
                raise ValueError("module weight length does not match the torus rank")

    def stabilizer_action(self, rep: RepData, style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> GroupActionData:
        if style not in H_STYLES:
            raise ValueError(f"unknown constraint style {style!r}")
        return self.stabilizer(rep, style)

    def trivial_rep(self) -> RepData:
        rep = self._trivial.get(None)
        if rep is None:
            factors = GROUP_FACTORS.get(self.group)
            if factors is None:
                rep = RepData(1, ((0,) * self.rank,), (), label="trivial")
            else:
                rep = irrep_gl2(0, 0) if factors == 1 else external_rep((0, 0), (0, 0))
            self._trivial[None] = rep
        return rep


def _binary_forms_stabilizer(rep: RepData, style: str) -> GroupActionData:
    try:
        ((n, m),) = label_factors(rep.label)
    except ValueError:
        raise ValueError("binary-forms stabilizer needs a labeled GL2 irreducible") from None
    return stabilizer_action_binary_forms(n, m, style)


def _matrix_variety_stabilizer(rep: RepData, style: str) -> GroupActionData:
    # Twisted diagonal {(g, g^-T)}: Lie element X acts as X on the left
    # factor and -X^T on the right, so E12 pairs with -E21 and so on.  The
    # group is connected, so both styles produce the same constraints.
    del style
    try:
        (n1, _), (n2, _) = label_factors(rep.label)
    except ValueError:
        raise ValueError("matrix-variety stabilizer needs a labeled GL2 x GL2 irreducible") from None
    dim = rep.dim
    # the raising pair is general but on a line (n1 = n2 = 0), where it is
    # zero; the torus pairs h11 - h21 and h12 - h22 are diagonal, with the
    # differences of the two factors' weights as eigenvalues.  The lowering
    # pair adds no condition (see the module docstring) and is not written.
    rows = [_OnRequest(dim, partial(_e_f_row, n1, n2), (0,) if dim == 1 else None)]
    torus = [tuple([w[a] - w[a + 2] for w in rep.weights]) for a in (0, 1)]
    rows += [_OnRequest(dim, partial(_diagonal_row, eigenvalues), eigenvalues) for eigenvalues in torus]
    return GroupActionData(dim, tuple([_mat(dim, dim, r) for r in rows]))


def _diagonal_row(eigenvalues: tuple[int, ...], c: int) -> SparseRow:
    # row c of the diagonal matrix of the eigenvalues, empty where one is 0
    return ((c, _SMALL[eigenvalues[c]]),) if eigenvalues[c] else ()


# Basis vector (i, k) of the product sits at r = i * (n2 + 1) + k.  On a
# factor of degree n, e sends vector j to j (vector j-1) and f sends it to
# (n - j) (vector j+1) (see gl2), so row r of e x 1 - 1 x f holds
# -(n2 - k + 1) at (i, k-1) and i + 1 at (i+1, k): at most two nonzeros,
# none of them zero, in increasing columns, so the row is in stored form as
# written.  Each value is one lookup in linalg's shared table (a fresh
# Fraction past it).
def _e_f_row(n1: int, n2: int, r: int) -> SparseRow:
    i, k = divmod(r, n2 + 1)
    return ((r - 1, _SMALL[k - n2 - 1]),) * (k > 0) + ((r + n2 + 1, _SMALL[i + 1]),) * (i < n1)


def custom_variety(
    rank: int,
    cocharacters: Sequence[Sequence[int]],
    x_module_weights: Sequence[Sequence[int]],
    stabilizer_ops: Mapping[str, Sequence[Mat]] | None = None,
    group: str = "generic",
) -> VarietySpec:
    """A user-supplied example; stabilizer constraints are looked up per
    representation label (see label_key), with labels absent from the table
    rejected.  An empty table means no equivariance constraints."""
    table = {k: tuple(v) for k, v in (stabilizer_ops or {}).items()}

    def recipe(rep: RepData, style: str) -> GroupActionData:
        del style
        if not table:
            return GroupActionData(rep.dim, ())
        key = label_key(rep.label)
        if key not in table:
            raise ValueError(f"no stabilizer constraints given for label {key!r}")
        return GroupActionData(rep.dim, table[key])

    return VarietySpec(
        name=CUSTOM,
        group=group,
        rank=rank,
        boundary_cocharacters=tuple(tuple(map(index, mu)) for mu in cocharacters),
        x_module_weights=tuple(tuple(map(index, w)) for w in x_module_weights),
        stabilizer=recipe,
    )


def label_key(label: object) -> str:
    """Canonical string key of a representation label, e.g. "2,0" or "1,0;2,1"."""
    if isinstance(label, str):
        return label
    return ";".join(f"{n},{m}" for n, m in label_factors(label))


_BUILTINS = {
    BINARY_QUADRATIC_FORMS: VarietySpec(
        name=BINARY_QUADRATIC_FORMS,
        group="GL2",
        rank=2,
        boundary_cocharacters=((1, 0),),
        x_module_weights=((-2, 0), (-1, -1), (0, -2)),
        stabilizer=_binary_forms_stabilizer,
    ),
    TWO_BY_TWO_MATRICES: VarietySpec(
        name=TWO_BY_TWO_MATRICES,
        group="GL2xGL2",
        rank=4,
        boundary_cocharacters=((1, 1, 0, -1),),
        x_module_weights=((-1, 0, -1, 0), (-1, 0, 0, -1), (0, -1, -1, 0), (0, -1, 0, -1)),
        stabilizer=_matrix_variety_stabilizer,
    ),
}


def builtin_variety(name: str) -> VarietySpec:
    """The two worked examples, fully populated: one shared instance per
    name, so every caller shares what it keeps (see VarietySpec)."""
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ValueError(f"unknown variety {name!r}")
    return _BUILTINS[name]
