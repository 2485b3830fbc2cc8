"""Hom spaces of multi-filtered representations and multiplicities.

An object couples a representation with equivariance constraints and a
family of filtrations.  The morphisms from one object to another are the
linear maps intertwining every paired constraint and mapping each
filtration step into the corresponding step of the target; their dimension
is the kernel dimension of one assembled rational linear system.

The system uses the weight structure.  Each GroupActionData classifies
its constraints once, as diagonal (a tuple of eigenvalues) or general, and
every solve reads that classification; the matrix-variety constraints come
classified, and their rows are written only where a solve reads them.  A
constraint pair that is diagonal on both sides (the torus part, in a
weight basis) lets an entry f[r, c] be nonzero only where the two
eigenvalues agree, so the other entries are never made variables and such
pairs contribute no equations.  The general constraints and the
filtration conditions are assembled over the surviving entries only;
solutions are put back among the zero entries.

Each filtration condition is emitted once per vector, not once per step.
Conditions are needed only at the jumps p of a source filtration F_a:
F_a is constant up to its next jump and F_b is decreasing, so sending
F_a(p) into F_b(p) sends every F_a(i) with i <= p into F_b(i).  Only the
echelon rows of F_a(p) whose pivot is not a pivot of the next step give
conditions there; the last step gives all of its rows.  This cuts out the
same maps: for subspaces U of V, the pivot columns of U are among those
of V, so the rows of V at the other pivots complete U to V; and F_b is
decreasing, so the conditions of the deeper steps of F_a already send the
rest of F_a(p) into F_b(p).  Each condition pairs a source row v with the
rows u of F_b(p)'s annihilator (u f v = 0); Subspace.annihilator_matrix
reads those rows off F_b(p)'s echelon rows, so assembling the conditions
runs no elimination, and hom_dim makes one rank call and hom_basis one
kernel call.

The multiplicity of a representation in the coordinate ring of one of the
built-in examples is the Hom dimension from the object carrying its
cocharacter filtrations and stabilizer constraints to the analogous object
of the trivial representation.  That target is the same for every cell, so
it is built once per example and constraint style, on the first call, and
kept on the spec; builtin_variety returns one shared spec per name, so
every caller shares it, and its constraints are classified once.

The target is one-dimensional, so a morphism is a row vector f and the
multiplicity is the dimension of a left kernel.  The target flag is the
whole line up to its top jump p0 and zero above it, so f must vanish on
the source step F(p0 + 1); that step is a coordinate flag, so this only
drops its coordinates.  The rest is the general assembler: the same
pruning keeps the coordinates f_c whose eigenvalues equal the target's
scalars lambda, and the same equation writer gives f (K - lambda) = 0 for
each general constraint, over the coordinates left, reading only their
rows of K; one rank finishes the cell.

A general constraint whose rows are upper bidiagonal, row i nonzero only
at columns i and i + 1, is solved first when another general constraint
is left to write: the binary-forms torus X = [[1, -2], [0, -1]] acts so on
monomials, and its reflection is dense below the diagonal.  The torus
equations are written over the coordinates left, as above, and reduced by
one rref; the null-space rows of the reduced rows, the writer that kernel
and annihilator_matrix share, made primitive integer rows and put back at
their coordinates, are a basis of its left kernel.  X's diagonal, n - 2i,
vanishes at most once, so that kernel has dimension at most 1.  The other
general constraints (the reflection) are then written over that basis
only, reading K's rows where the basis is nonzero alone (a product with
the basis matrix), and the one rank call runs on that small system: its
columns are the basis coefficients, and it is 0 x 0 when the kernel is
empty.  The reflection's rows are written on request, so a forms cell
writes those rows alone, and none for odd n.  Which constraints are upper
bidiagonal is read once per GroupActionData, as the diagonal ones are, and
never off rows written on request, so the matrix cells keep the path
above, as does a forms cell in lie_only, whose torus is its one general
constraint.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Container, Iterable, Sequence

from .filtration import FilteredSpace
from .gl2 import GROUP_FACTORS, GroupActionData, H_STYLE_LIE_PLUS_ELEMENTS, RepData, label_from_factors, rep_from_label
from .linalg import _SMALL, Mat, SparseRow, _mat, _null_rows, _primitive, kernel, rank, rref
from .varieties import VarietySpec, cocharacter_filtration


@dataclass(frozen=True)
class FiltObject:
    """A representation with equivariance constraints and filtrations."""

    rep: RepData
    h_action: GroupActionData
    filtrations: tuple[FilteredSpace, ...]

    def __post_init__(self) -> None:
        check_object_dims(self.rep.dim, self.h_action, self.filtrations)


def check_object_dims(dim: int, h_action: GroupActionData, filtrations: Sequence[FilteredSpace]) -> None:
    """Raise ValueError unless the constraints and filtrations of an object
    live on its representation's dimension dim."""
    if h_action.dim != dim:
        raise ValueError("constraint dimension does not match the representation")
    for f in filtrations:
        if f.dim != dim:
            raise ValueError("filtration dimension does not match the representation")


def _check_shapes(a: FiltObject, b: FiltObject) -> None:
    if len(a.filtrations) != len(b.filtrations):
        raise ValueError("objects carry different numbers of filtrations")
    if len(a.h_action.intertwiner_constraints) != len(b.h_action.intertwiner_constraints):
        raise ValueError("objects carry different numbers of equivariance constraints")


def _free_entries(
    a: GroupActionData, b: GroupActionData, dropped: Container[int] = ()
) -> tuple[list[tuple[int, int]], list[tuple[Mat, Mat]]]:
    """The entries (r, c) of f, a (b.dim x a.dim) matrix, in row-major order,
    that no diagonal constraint pair forces to zero and whose source column
    c is not in dropped; and the pairs that are not diagonal on both sides.

    For a pair with both matrices diagonal, f ka = kb f at entry (r, c)
    reads f[r, c] (ka[c, c] - kb[r, r]) = 0, so such pairs only decide
    which entries are variables at all."""
    diagonal: list[tuple[tuple[int | Fraction, ...], tuple[int | Fraction, ...]]] = []
    general: list[tuple[Mat, Mat]] = []
    for eigen_a, eigen_b, ka, kb in zip(a.diagonals, b.diagonals, a.intertwiner_constraints, b.intertwiner_constraints):
        if eigen_a is None or eigen_b is None:
            general.append((ka, kb))
        else:
            diagonal.append((eigen_a, eigen_b))
    columns = [c for c in range(a.dim) if c not in dropped]
    free = []
    for r in range(b.dim):
        kept = columns
        for eigen_a, eigen_b in diagonal:
            lam = eigen_b[r]
            kept = [c for c in kept if eigen_a[c] == lam]
        free += [(r, c) for c in kept]
    return free, general


def _constraint_rows(free: list[tuple[int, int]], general: list[tuple[Mat, Mat]]) -> list[SparseRow]:
    """The equations of f ka = kb f for each general pair, one per output
    entry, over the variables free[k] = (r, c): f[r, c] enters equation
    (r, j) with ka[c, j] and equation (i, c) with -kb[i, r].  Variables are
    visited in order, so each row is sorted as written.  An entry that
    cancels is dropped, and so is a row left empty: rows are in stored
    form."""
    rows: list[SparseRow] = []
    for ka, kb in general:
        kb_cols: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)
        for i, kb_row in enumerate(kb.sparse_rows):
            for r, x in kb_row:
                kb_cols[r].append((i, x))
        # equation (i, j) is keyed i * n + j
        n = ka.cols
        equations: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)
        for k, (r, c) in enumerate(free):
            for j, x in ka.sparse_rows[c]:
                equations[r * n + j].append((k, x))
            for i, x in kb_cols[r]:
                eq = equations[i * n + c]
                # at (i, c) = (r, c), ka[c, c] came first: take it back, less x
                x = eq.pop()[1] - x if eq and eq[-1][0] == k else -x
                if x:
                    eq.append((k, x))
        rows += [tuple(eq) for eq in equations.values() if eq]
    return rows


def _hom_system(a: FiltObject, b: FiltObject) -> tuple[Mat, list[int]]:
    """Linear system on the entries of f, a (dim_b x dim_a) matrix, that no
    diagonal constraint pair forces to zero; also returns those entries'
    row-major flat indices, in order, one per column of the system.

    The general constraint pairs and the filtration conditions give rows
    over those variables; rows that vanish on them are dropped.  Every loop
    runs over nonzero entries only.
    """
    da = a.rep.dim
    free, general = _free_entries(a.h_action, b.h_action)
    var = {rc: k for k, rc in enumerate(free)}
    rows = _constraint_rows(free, general)
    for fa, fb in zip(a.filtrations, b.filtrations):
        # one annihilator per step of fb, keyed by the step's position
        # (len(fb.steps) stands for the zero space past the last jump)
        annihilators: dict[int, tuple[SparseRow, ...]] = {}
        jumps_b = fb.jumps()
        for t, (p, step) in enumerate(fa.steps):
            target = bisect_left(jumps_b, p)
            if target not in annihilators:
                annihilators[target] = fb.at(p).annihilator_matrix().sparse_rows
            ann_rows = annihilators[target]
            if not ann_rows:
                continue
            # the next step's pivots: its own conditions cover those rows
            deeper = {row[0][0] for row in fa.steps[t + 1][1].sparse_rows} if t + 1 < len(fa.steps) else set()
            for v_nonzero in step.sparse_rows:
                if v_nonzero[0][0] in deeper:
                    continue
                # annihilator rows of the target step kill f v; var grows
                # with (r, c), so each row comes out sorted and zero-free
                for u_nonzero in ann_rows:
                    row = tuple([(var[r, c], ur * vc) for r, ur in u_nonzero for c, vc in v_nonzero if (r, c) in var])
                    if row:
                        rows.append(row)

    # every row is sorted, free of zeros and holds Fractions: stored form
    return _mat(len(rows), len(free), tuple(rows)), [r * da + c for r, c in free]


def hom_dim(a: FiltObject, b: FiltObject) -> int:
    """Dimension of the space of constraint-intertwining filtered maps a -> b.

    A zero-dimensional side leaves only the zero map, so the answer is 0,
    also for Hom(0, 0), and hom_basis is empty.
    """
    _check_shapes(a, b)
    if a.rep.dim == 0 or b.rep.dim == 0:
        return 0
    system, free = _hom_system(a, b)
    return len(free) - rank(system)


def hom_basis(a: FiltObject, b: FiltObject) -> list[Mat]:
    """Matrices spanning the Hom space (empty for zero-dimensional objects).

    Each kernel vector is put back in place among the entries forced to
    zero; inserting zero coordinates keeps an echelon basis canonical, so
    this is the echelon basis of the Hom space inside all dim_b x dim_a
    matrices.
    """
    _check_shapes(a, b)
    if a.rep.dim == 0 or b.rep.dim == 0:
        return []
    da, db = a.rep.dim, b.rep.dim
    system, free = _hom_system(a, b)
    out = []
    for v in kernel(system).sparse_rows:
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(db)]
        for k, x in v:
            r, c = divmod(free[k], da)
            rows[r].append((c, x))
        out.append(Mat.from_sparse_rows(rows, da))
    return out


def filt_object(rep: RepData, spec: VarietySpec, style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> FiltObject:
    """The object of a representation over an example: its cocharacter
    filtrations plus its stabilizer constraints."""
    filts = tuple(cocharacter_filtration(rep, mu) for mu in spec.boundary_cocharacters)
    return FiltObject(rep, spec.stabilizer_action(rep, style), filts)


def _left_kernel_entries(a: FiltObject, triv: FiltObject) -> tuple[list[tuple[int, int]], list[tuple[Mat, Mat]]]:
    """The entries of hom(a, triv) left as variables, and its general
    constraint pairs, for a one-dimensional triv, when a's filtrations are
    coordinate flags, as cocharacter filtrations are.

    A morphism is a row vector f, zero on a's step F(p0 + 1) of each
    filtration, p0 the target's top jump; that is the only flag condition,
    and it drops coordinates.  The constraints are then pruned as for the
    general system; see the module docstring.
    """
    _check_shapes(a, triv)
    # F(p0 + 1) is the first step past p0, if any (else zero), read off the
    # steps; the rows of a coordinate flag's step are unit vectors
    steps = [next((s for p, s in fa.steps if p > fb.steps[-1][0]), None) for fa, fb in zip(a.filtrations, triv.filtrations)]
    dropped = {row[0][0] for step in steps if step is not None for row in step.sparse_rows}
    return _free_entries(a.h_action, triv.h_action, dropped)


def _left_kernel_dim(a: FiltObject, triv: FiltObject) -> int:
    """hom_dim(a, triv) under the assumptions of _left_kernel_entries, by
    one rank call.  When a general constraint's rows are upper bidiagonal
    and another general constraint is left, the left kernel of the first
    such is read off its reduced equations, and the others are written over
    the basis it leaves; otherwise every general constraint is written over
    the entries left.  See the module docstring."""
    free, general = _left_kernel_entries(a, triv)
    k = next((k for k, bidiagonal in enumerate(a.h_action.bidiagonals) if bidiagonal), None)
    if k is None or len(general) == 1:
        rows = _constraint_rows(free, general)
        return len(free) - rank(_mat(len(rows), len(free), tuple(rows)))
    # constraint k is not diagonal, so it is among the general pairs
    first = a.h_action.intertwiner_constraints[k]
    rows = _constraint_rows(free, [general.pop(next(i for i, (ka, _) in enumerate(general) if ka is first))])
    red, pivots = rref(_mat(len(rows), len(free), tuple(rows)))
    # its null-space rows, made primitive integer rows and put back at
    # their coordinates: free grows with the column, so each stays sorted
    null = _null_rows(red.sparse_rows[: len(pivots)], len(free)).sparse_rows
    vectors = [tuple([(free[j][1], _SMALL[x]) for j, x in _primitive(row).items()]) for row in null]
    basis = _mat(len(vectors), a.rep.dim, tuple(vectors))
    # the others, f K = lam f with f = t basis, read t (basis (K - lam)) = 0:
    # one row per column of K, over the coefficients t
    rows = [row for ka, kb in general for row in (basis @ ka - basis.scale(kb.at(0, 0))).transpose().sparse_rows if row]
    return basis.rows - rank(_mat(len(rows), basis.rows, tuple(rows)))


def multiplicity(rep: RepData, spec: VarietySpec, style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> int:
    """Multiplicity of rep in the coordinate ring of the example: the Hom
    dimension to the trivial object, solved as a left kernel."""
    a = filt_object(rep, spec, style)  # rejects an unknown style before the lookup below
    triv = spec._trivial.get(style)
    if triv is None:  # nothing is kept when building it fails
        triv = spec._trivial[style] = filt_object(spec.trivial_rep(), spec, style)
    return _left_kernel_dim(a, triv)


def multiplicity_table(
    spec: VarietySpec,
    labels: Iterable[object],
    style: str = H_STYLE_LIE_PLUS_ELEMENTS,
) -> list[tuple[object, int]]:
    """One multiplicity per label, in sorted label order."""
    out = []
    for label in sorted(labels):
        out.append((label, multiplicity(rep_from_label(spec.group, label), spec, style)))
    return out


def grid_labels(
    group: str,
    n_range: Sequence[int],
    m_range: Sequence[int],
    n2_range: Sequence[int] | None = None,
    m2_range: Sequence[int] | None = None,
) -> list[object]:
    """Labels of a rectangular grid; product groups reuse the first factor's
    ranges unless the second factor's are given."""
    if group not in GROUP_FACTORS:
        raise ValueError(f"no labeled grid for group {group!r}")
    n2 = n_range if n2_range is None else n2_range
    m2 = m_range if m2_range is None else m2_range
    spans = [product(n_range, m_range), product(n2, m2)][: GROUP_FACTORS[group]]
    return [label_from_factors(factors) for factors in product(*spans)]
