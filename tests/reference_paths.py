"""Reference versions of the library's fast paths.

These are the plain constructions the library replaces: the Hom system
assembled over every entry of f with one row per constraint equation, a
cocharacter filtration spanned from unit vectors and normalized by
make_filtered, Gauss-Jordan elimination and subspace membership carried out
step by step in Fraction arithmetic, and symmetric powers of 2x2 matrices
expanded in Fractions, matrices stored densely with arithmetic on every
entry, the subspace basis check that tests each pivot column entry by
entry, grid labels written as one nested loop per group, the matrix-variety
stabilizer subtracted from the Kronecker-product operators and written
whole, every row up front rather than each on request, the
binary-forms stabilizer built from the representation's operators and a
symmetric power of its reflection, symmetric-power characters by
convolving binomial generating functions, the weight-pruned Hom
system that emits the filtration conditions at every jump for every
echelon row of the source step, the external product with its
Kronecker-product operators built up front, and the multiplicity that
builds a fresh trivial object for every call and solves the general Hom
system to it rather than a left kernel, and the de-Rees map that spans
every prefix of generators afresh and normalizes through make_filtered,
the reduced echelon form extended one vector at a time in Fractions,
the annihilator of a subspace as the kernel of its basis, found by
elimination, and the filtration-morphism check at every jump of either
side, the irreducible operators with their rows checked and coerced by
Mat.from_sparse_rows, and the left kernel of a paper cell with every
general constraint written over the kept coordinates and ranked at once,
no constraint solved as a chain.  They live only here, so that tests can
compare the library against them on many inputs.

The cached builders at the end build a paper cell's representation,
object or reference answer once per test session, for the tests that
compare answers only: a test that monkeypatches what builds them, counts
builds or compares identity builds its own.  The style is always passed,
so that one cell has one cached object per style.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping, Sequence

from multifilt.characters import WeightMultiset
from multifilt.filtration import FilteredSpace, make_filtered
from multifilt.gl2 import (
    GROUP_FACTORS,
    H_STYLE_LIE_PLUS_ELEMENTS,
    Gl2Label,
    RepData,
    Weight,
    external_rep,
    irrep_gl2,
    label_factors,
    rep_from_label,
)
from multifilt.homspaces import FiltObject, _constraint_rows, _left_kernel_entries, filt_object, hom_dim
from multifilt.linalg import _ONE, _SMALL, AmbientMismatch, Mat, SparseRow, Subspace, _mat, _row_sum, kernel, kron, rank, vector
from multifilt.rees import GradedFreeModule, RankDeficient
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, Cocharacter, VarietySpec, builtin_variety, pairing


def reference_annihilator(s: Subspace) -> Mat:
    """The echelon basis of the annihilator of s: the kernel of s's basis
    matrix, found by elimination."""
    return kernel(s.basis_matrix()).basis_matrix()


def reference_is_filtration_morphism(f: Mat, src: FilteredSpace, dst: FilteredSpace) -> bool:
    """f(F_src(i)) inside F_dst(i), checked at every jump of either side."""
    if f.cols != src.dim or f.rows != dst.dim:
        raise AmbientMismatch(f"map shape {f.rows}x{f.cols} does not match {dst.dim}x{src.dim}")
    image = f.transpose()
    for i in sorted(set(src.jumps()) | set(dst.jumps())):
        if not dst.at(i).contains_rows(src.at(i).basis_matrix() @ image):
            return False
    return True


def full_hom_system(a: FiltObject, b: FiltObject) -> Mat:
    """Linear system on vec(f), f a (dim_b x dim_a) matrix stored row-major."""
    da, db = a.rep.dim, b.rep.dim
    nvars = da * db
    rows: list[list[Fraction]] = []

    def var(r: int, c: int) -> int:
        return r * da + c

    for ka, kb in zip(a.h_action.intertwiner_constraints, b.h_action.intertwiner_constraints):
        # f ka = kb f, one equation per output entry (i, j)
        for i in range(db):
            for j in range(da):
                row = [Fraction(0)] * nvars
                for c in range(da):
                    row[var(i, c)] += ka.at(c, j)
                for r in range(db):
                    row[var(r, j)] -= kb.at(i, r)
                rows.append(row)

    for fa, fb in zip(a.filtrations, b.filtrations):
        for p in fa.jumps():
            ann = reference_annihilator(fb.at(p))
            if ann.rows == 0:
                continue
            for v in fa.at(p).basis:
                # annihilator rows of the target step kill f v
                for u in range(ann.rows):
                    row = [Fraction(0)] * nvars
                    for r in range(db):
                        urow = ann.at(u, r)
                        if urow == 0:
                            continue
                        for c in range(da):
                            if v[c] != 0:
                                row[var(r, c)] += urow * v[c]
                    rows.append(row)

    return Mat.from_rows(rows, nvars)


def reference_per_jump_hom_system(a: FiltObject, b: FiltObject) -> tuple[Mat, list[int]]:
    """The weight-pruned Hom system with the filtration conditions emitted
    per jump: at each jump p of the source, every echelon row of F_a(p)
    against every annihilator row of F_b(p)."""
    da, db = a.rep.dim, b.rep.dim

    def diagonal_entries(m: Mat) -> tuple[Fraction, ...] | None:
        if any(m.at(i, j) for i in range(m.rows) for j in range(m.cols) if i != j):
            return None
        return tuple(m.at(i, i) for i in range(m.rows))

    diagonal, general = [], []
    for ka, kb in zip(a.h_action.intertwiner_constraints, b.h_action.intertwiner_constraints):
        eigen_a, eigen_b = diagonal_entries(ka), diagonal_entries(kb)
        if eigen_a is None or eigen_b is None:
            general.append((ka, kb))
        else:
            diagonal.append((eigen_a, eigen_b))
    free = [(r, c) for r in range(db) for c in range(da) if all(ea[c] == eb[r] for ea, eb in diagonal)]
    var = {rc: k for k, rc in enumerate(free)}
    rows: list[list[tuple[int, Fraction]]] = []

    def emit(coeffs: dict[int, Fraction]) -> None:
        row = sorted((k, x) for k, x in coeffs.items() if x)
        if row:
            rows.append(row)

    for ka, kb in general:
        kb_cols = kb.transpose().sparse_rows
        equations: dict[tuple[int, int], dict[int, Fraction]] = {}
        for k, (r, c) in enumerate(free):
            for j, x in ka.sparse_rows[c]:
                equations.setdefault((r, j), {})[k] = x
            for i, x in kb_cols[r]:
                eq = equations.setdefault((i, c), {})
                eq[k] = eq.get(k, 0) - x
        for coeffs in equations.values():
            emit(coeffs)

    for fa, fb in zip(a.filtrations, b.filtrations):
        for p in fa.jumps():
            ann_rows = reference_annihilator(fb.at(p)).sparse_rows
            for v_nonzero in fa.at(p).sparse_rows:
                for u_nonzero in ann_rows:
                    emit({var[r, c]: ur * vc for r, ur in u_nonzero for c, vc in v_nonzero if (r, c) in var})

    return Mat.from_sparse_rows(rows, len(free)), [r * da + c for r, c in free]


def reference_hom(a: FiltObject, b: FiltObject) -> tuple[int, list[Mat]]:
    """The Hom dimension, as vec(f)'s count less the full system's rank,
    and the Hom basis, as the full system's kernel, each computed from the
    one system on its own."""
    if a.rep.dim == 0 or b.rep.dim == 0:
        return 0, []
    system = full_hom_system(a, b)
    return a.rep.dim * b.rep.dim - rank(system), [Mat(b.rep.dim, a.rep.dim, tuple(v)) for v in kernel(system).basis]


def reference_cocharacter_filtration(rep: RepData, mu: Cocharacter) -> FilteredSpace:
    """F(i) = span of the weight vectors with -<mu, weight> >= i, by elimination."""
    values = [-pairing(mu, chi) for chi in rep.weights]
    steps = {}
    for v in sorted(set(values)):
        rows = [[1 if k == b else 0 for k in range(rep.dim)] for b in range(rep.dim) if values[b] >= v]
        steps[v] = Subspace.span(rep.dim, rows)
    return make_filtered(rep.dim, steps)


def reference_rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Gauss-Jordan elimination in Fraction arithmetic; same pivot rule."""
    rows = m.row_list()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Mat.from_rows(rows, m.cols), tuple(pivots)


def reference_subspace_contains(s: Subspace, v: Iterable[object]) -> bool:
    """Membership by Fraction reduction against every echelon row."""
    w = list(vector(v))
    if len(w) != s.ambient_dim:
        raise AmbientMismatch("vector length does not match ambient dimension")
    for row in s.basis:
        p = next(j for j, x in enumerate(row) if x != 0)
        if w[p] != 0:
            c = w[p]
            w = [a - c * b for a, b in zip(w, row)]
    return all(x == 0 for x in w)


def reference_sym_power_matrix(g: Mat, n: int) -> Mat:
    """Row i: coefficients of (a x + b y)^(n-i) (c x + d y)^i, in Fractions.
    The powers of the two linear forms are expanded once, by repeated
    multiplication, and row i multiplies the two it needs."""
    a, b, c, d = g.at(0, 0), g.at(0, 1), g.at(1, 0), g.at(1, 1)

    def powers(u: Fraction, v: Fraction) -> list[list[Fraction]]:
        out = [[Fraction(1)]]
        for _ in range(n):
            p = out[-1]
            out.append([u * x + v * y for x, y in zip(p + [Fraction(0)], [Fraction(0)] + p)])
        return out

    # each power as its nonzero (degree in y, coefficient) pairs
    left, right = ([[(j, x) for j, x in enumerate(p) if x] for p in powers(*form)] for form in ((a, b), (c, d)))
    rows = []
    for i in range(n + 1):
        row = [Fraction(0)] * (n + 1)
        for j, x in left[n - i]:
            for k, y in right[i]:
                row[j + k] += x * y
        rows.append(row)
    return Mat.from_rows(rows, n + 1)


@dataclass(frozen=True)
class DenseMat:
    """Dense rational matrix, row-major: every entry stored, every entry
    taking part in the arithmetic."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "DenseMat":
        return DenseMat(self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise AmbientMismatch(f"matrix has {self.cols} columns, vector has length {len(v)}")
        return tuple(sum((x * y for x, y in zip(self.row(i), v)), Fraction(0)) for i in range(self.rows))

    def __matmul__(self, other: "DenseMat") -> "DenseMat":
        if self.cols != other.rows:
            raise AmbientMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(sum((self.at(i, k) * other.at(k, j) for k in range(self.cols)), Fraction(0)))
        return DenseMat(self.rows, other.cols, tuple(out))

    def __add__(self, other: "DenseMat") -> "DenseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in matrix sum")
        return DenseMat(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "DenseMat") -> "DenseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in matrix difference")
        return DenseMat(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))


def dense_kron(a: DenseMat, b: DenseMat) -> DenseMat:
    """Kronecker product; index of the left factor varies slowest."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                out.extend(a.at(i, j) * b.at(k, l) for l in range(b.cols))
    return DenseMat(a.rows * b.rows, a.cols * b.cols, tuple(out))


def reference_check_subspace_basis(ambient_dim: int, basis: Sequence[Sequence]) -> None:
    """Raise what a subspace basis that is not a reduced row echelon basis
    of QQ^ambient_dim must raise: each row in turn is checked for its
    length, a nonzero entry, a leading 1 right of the previous pivot, and
    zeros in its pivot column in every other row."""
    last_pivot = -1
    for i, row in enumerate(basis):
        if len(row) != ambient_dim:
            raise AmbientMismatch("basis row length does not match ambient dimension")
        p = next((j for j, x in enumerate(row) if x != 0), None)
        if p is None:
            raise ValueError("zero row in subspace basis")
        if p <= last_pivot or row[p] != 1:
            raise ValueError("subspace basis is not in reduced row echelon form")
        for k in range(len(basis)):
            if k != i and basis[k][p] != 0:
                raise ValueError("subspace basis is not in reduced row echelon form")
        last_pivot = p


def reference_grid_labels(
    group: str,
    n_range: Sequence[int],
    m_range: Sequence[int],
    n2_range: Sequence[int] | None = None,
    m2_range: Sequence[int] | None = None,
) -> list[object]:
    """Grid labels as nested loops, with the second factor's ranges defaulting to the first's."""
    if group == "GL2":
        return [(n, m) for n in n_range for m in m_range]
    n2 = n_range if n2_range is None else n2_range
    m2 = m_range if m2_range is None else m2_range
    return [((n, m), (np_, mp)) for n in n_range for m in m_range for np_ in n2 for mp in m2]


def reference_matrix_variety_stabilizer(rep: RepData) -> tuple[Mat, ...]:
    """The twisted-diagonal constraints (e1 - f2, f1 - e2, h11 - h21,
    h12 - h22), subtracted from the eight factor operators of rep."""
    e1, f1, h11, h12, e2, f2, h21, h22 = rep.action_ops
    return (e1 - f2, f1 - e2, h11 - h21, h12 - h22)


def reference_eager_matrix_stabilizer(rep: RepData) -> tuple[Mat, ...]:
    """The twisted-diagonal constraints (e1 - f2, f1 - e2, h11 - h21,
    h12 - h22) written whole from rep's label and weights, every row in
    stored form, in one pass over the basis vectors (i, k), r = i * d2 + k."""
    (n1, _), (n2, _) = label_factors(rep.label)
    d2 = n2 + 1
    cells = [(r, *divmod(r, d2)) for r in range((n1 + 1) * d2)]
    e_f = tuple([((r - 1, _SMALL[k - d2]),) * (k > 0) + ((r + d2, _SMALL[i + 1]),) * (i < n1) for r, i, k in cells])
    f_e = tuple([((r - d2, _SMALL[n1 - i + 1]),) * (i > 0) + ((r + 1, _SMALL[-k - 1]),) * (k < n2) for r, i, k in cells])
    torus = [
        tuple([((r, _SMALL[w[a] - w[a + 2]]),) if w[a] != w[a + 2] else () for r, w in enumerate(rep.weights)])
        for a in (0, 1)
    ]
    return tuple([_mat(rep.dim, rep.dim, rows) for rows in (e_f, f_e, *torus)])


def reference_external_rep(a: Gl2Label, b: Gl2Label) -> RepData:
    """External product of two GL2 irreducibles with its eight
    Kronecker-product operators built up front, as a plain tuple."""
    left = irrep_gl2(*a)
    right = irrep_gl2(*b)
    weights = tuple(w1 + w2 for w1 in left.weights for w2 in right.weights)
    il, ir = Mat.identity(left.dim), Mat.identity(right.dim)
    ops = tuple(kron(op, ir) for op in left.action_ops) + tuple(kron(il, op) for op in right.action_ops)
    return RepData(left.dim * right.dim, weights, ops, label=(a, b))


def reference_binary_forms_stabilizer(n: int, m: int) -> tuple[Mat, Mat]:
    """The forms stabilizer's torus and reflection constraints from
    operators: the torus generator [[1, -2], [0, -1]] as h1 - h2 - 2e of
    irrep_gl2(n, m), and the reflection g = [[1, 0], [1, -1]] in column
    convention, the transpose of the symmetric power of g^T, times
    det(g)^m = (-1)^m."""
    e, _, h1, h2 = cached_rep("GL2", (n, m)).action_ops
    return h1 - h2 - e.scale(2), _reference_forms_reflection(n).scale(Fraction(-1) ** m)


@lru_cache(maxsize=None)
def _reference_forms_reflection(n: int) -> Mat:
    # the twist-free part, shared by every m (the Fraction expansion is slow)
    g = Mat.from_rows([[1, 0], [1, -1]])
    return reference_sym_power_matrix(g.transpose(), n).transpose()


def reference_sym_power_weights(w: Mapping[Weight, int], d: int) -> WeightMultiset:
    """Character of the d-th symmetric power of a module with character w.

    Computed by convolving one generating function per distinct weight:
    a weight of multiplicity c contributes binom(a + c - 1, a) copies of
    a times the weight in degree a.
    """
    if d < 0:
        raise ValueError("symmetric-power degree must be nonnegative")
    items = sorted(w.items())
    if not items:
        if d == 0:
            return {(): 1}
        return {}
    zero = (0,) * len(items[0][0])
    layers: list[WeightMultiset] = [{zero: 1}] + [{} for _ in range(d)]
    for chi, c in items:
        nxt: list[WeightMultiset] = [{} for _ in range(d + 1)]
        for k in range(d + 1):
            for a in range(k + 1):
                count = comb(a + c - 1, a)
                shift = tuple(a * x for x in chi)
                for wt, mult in layers[k - a].items():
                    key = tuple(x + y for x, y in zip(wt, shift))
                    nxt[k][key] = nxt[k].get(key, 0) + mult * count
        layers = nxt
    return layers[d]


def reference_trivial_rep(spec: VarietySpec) -> RepData:
    """The trivial representation of the example's group, built afresh."""
    factors = GROUP_FACTORS.get(spec.group)
    if factors is None:
        return RepData(1, ((0,) * spec.rank,), (), label="trivial")
    return irrep_gl2(0, 0) if factors == 1 else external_rep((0, 0), (0, 0))


def reference_multiplicity(rep: RepData, spec: VarietySpec, style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> int:
    """The Hom dimension to a trivial object built afresh for this call,
    through the general Hom system of hom_dim."""
    return hom_dim(filt_object(rep, spec, style), filt_object(reference_trivial_rep(spec), spec, style))


def reference_derees(m: GradedFreeModule) -> FilteredSpace:
    """F(p) spanned afresh from the generators of degree <= -p, for every
    degree, after one full-rank check, and normalized by make_filtered."""
    vecs = [v for v, _ in m.generators]
    if len(vecs) != m.ambient_dim or Subspace.span(m.ambient_dim, vecs).dim() != m.ambient_dim:
        raise RankDeficient("generators must be independent and of full rank")
    steps = {}
    for d in sorted({d for _, d in m.generators}):
        steps[-d] = Subspace.span(m.ambient_dim, [v for v, dg in m.generators if dg <= d])
    return make_filtered(m.ambient_dim, steps)


def reference_extend_echelon(rows: dict[int, SparseRow], v: SparseRow) -> bool:
    """Add the stored-form row v to reduced row echelon rows keyed by pivot,
    in place, keeping them reduced, in Fraction arithmetic; False, with rows
    unchanged, when v already lies in their span.

    v is reduced against the rows with its coefficients read off v itself,
    as in Subspace.contains_rows.  What is left is scaled to a leading 1 at
    its pivot q and subtracted from every row that is nonzero at q: one
    back-substitution, since it is zero at every other pivot."""
    rest = dict(v)
    for p, c in v:
        for j, x in rows.get(p, ()):
            rest[j] = rest[j] - c * x if j in rest else -c * x
    new = sorted([(j, x) for j, x in rest.items() if x])
    if not new:
        return False
    q, lead = new[0]
    new = ((q, _ONE), *[(j, x / lead) for j, x in new[1:]])
    for p, row in rows.items():
        c = next((x for j, x in row if j == q), None)
        if c is not None:
            rows[p] = _row_sum(row, tuple([(j, -c * x) for j, x in new]))
    rows[q] = new
    return True


def reference_lie_op(x: Mat, n: int, m: int) -> Mat:
    """Derived action of the 2x2 matrix x on monomials, plus m tr(x), with
    its rows passed through Mat.from_sparse_rows, which checks each entry
    and drops a zero diagonal one."""
    a, b, c, d = x.at(0, 0), x.at(0, 1), x.at(1, 0), x.at(1, 1)
    tw = m * (a + d)
    rows = []
    for i in range(n + 1):
        row = [(i - 1, (n - i + 1) * c)] if i > 0 and c else []
        row.append((i, (n - i) * a + i * d + tw))
        if i < n and b:
            row.append((i + 1, (i + 1) * b))
        rows.append(row)
    return Mat.from_sparse_rows(rows, n + 1)


def reference_left_kernel_dim(a: FiltObject, triv: FiltObject) -> int:
    """hom(a, triv) as a left kernel over the coordinates the flags and the
    diagonal constraints keep, with every general constraint written by the
    general system's equation writer and one rank over all of them."""
    free, general = _left_kernel_entries(a, triv)
    rows = _constraint_rows(free, general)
    return len(free) - rank(_mat(len(rows), len(free), tuple(rows)))


# The built-in example of each labeled group.
PAPER_SPECS = {"GL2": BINARY_QUADRATIC_FORMS, "GL2xGL2": TWO_BY_TWO_MATRICES}


@lru_cache(maxsize=None)
def cached_rep(group: str, label: object) -> RepData:
    """rep_from_label(group, label), built once per session."""
    return rep_from_label(group, label)


@lru_cache(maxsize=None)
def cached_object(group: str, label: object, style: str) -> FiltObject:
    """The cell's object over the group's built-in example, built once per
    session from cached_rep."""
    return filt_object(cached_rep(group, label), builtin_variety(PAPER_SPECS[group]), style)


@lru_cache(maxsize=None)
def cached_trivial_object(group: str, style: str) -> FiltObject:
    """The trivial object of the group's built-in example, built once per
    session, apart from the one the example keeps."""
    spec = builtin_variety(PAPER_SPECS[group])
    return filt_object(spec.trivial_rep(), spec, style)


@lru_cache(maxsize=None)
def cached_reference_multiplicity(group: str, label: object, style: str) -> int:
    """reference_multiplicity of the cell, computed once per session."""
    return reference_multiplicity(cached_rep(group, label), builtin_variety(PAPER_SPECS[group]), style)
