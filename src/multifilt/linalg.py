"""Exact linear algebra over the rationals.

Matrices are immutable, carry ``Fraction`` entries and store only their
nonzero entries, row by row, so that building, adding, multiplying and
stacking them costs their nonzeros rather than their shapes.  Subspaces are
stored by their reduced row echelon basis, in the same row layout, so two
equal subspaces have equal representations, ``==`` is a genuine subspace
equality test, and checking, comparing and reducing against a basis costs
its nonzeros: a coordinate subspace costs one entry per basis vector.
Every scalar is a ``Fraction``; ``frac`` hands out one shared ``Fraction``
per integer in a small fixed table (-256..256), so the integer entries of
operators, constraints and flags cost a lookup rather than a construction.
Only what ``frac`` and the built-in recipes write holds the table's objects:
computed values (products, eliminations) are fresh ``Fraction``s, equal to
them but not the same objects, except that a row divided by its pivot holds
``_ONE`` wherever it is 1.  Nothing depends on identity: ``kron`` copies a
factor that is ``_ONE`` rather than multiplying, and computes the same entry
otherwise.

Every elimination runs on integers, by one step.  Each nonzero row is scaled
by the lcm of its denominators, divided by its content, and reduced against
the rows kept so far, one per leading column, by the fraction-free step of
Bareiss (1968) followed by content removal, so its entries stay no larger
than minors of the integer matrix.  rank, rref and kernel share one pass.
Its rows are taken shortest first, the row-count form of the fill-reducing
pivot order of Markowitz (1957): sparse rows become the pivots, reduction
adds few nonzeros, and a sparse system costs about its nonzeros per pivot
rather than rows x cols.  rank stops at these echelon rows; rref clears each
at the later pivots and divides it by its pivot once, the only Fraction
arithmetic; kernel writes the null-space rows of that form with the writer
that annihilator_matrix uses.  The incremental extension that derees uses
keeps such cleared integer rows and adds one vector at a time with the same
step, and the caller divides only the rows a vector changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import lt
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _SharedInts(dict):
    """int -> Fraction: a lookup gives the kept Fraction of a key in the
    table and a fresh Fraction of any other int (kept nowhere)."""

    __slots__ = ()

    def __missing__(self, x: int) -> Fraction:
        return Fraction(x)


# One shared Fraction per integer in -256..256, so that an integer entry
# costs one lookup, _SMALL[x], rather than a Fraction construction.  0 and 1
# map to _ZERO and _ONE, which kron tells apart by identity.
_SMALL = _SharedInts({i: Fraction(i) for i in range(-256, 257)} | {0: _ZERO, 1: _ONE})

_NOT_RREF = "subspace basis is not in reduced row echelon form"

# Mat and Subspace are frozen and slotted (no per-instance dict, which a
# large input of small subspaces would pay for), so their constructors set
# fields through object.__setattr__.
_set = object.__setattr__


class AmbientMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


def frac(x: object) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction;
    an int in the shared table gives its shared Fraction."""
    # Exact type tests first: Fraction's metaclass is ABCMeta, so an
    # isinstance test against it costs an ABC subclass check per entry.
    if type(x) is Fraction:
        return x
    if type(x) is not int:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            return Fraction(x)
        if not isinstance(x, int):
            raise TypeError(f"cannot interpret {x!r} as a rational number")
    return _SMALL[x]


def vector(entries: Iterable[object]) -> Vector:
    return tuple(frac(x) for x in entries)


SparseRow = tuple[tuple[int, Fraction], ...]


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix shape")


def check_dim(n: int) -> None:
    """Raise ValueError if n is negative: every space has a dimension >= 0."""
    if n < 0:
        raise ValueError(f"dimension {n} is negative")


@dataclass(frozen=True, init=False, slots=True)
class Mat:
    """Rational matrix that stores only its nonzero entries.

    Row i is ``sparse_rows[i]``: the (column, value) pairs of its nonzero
    entries in column order, the row-compressed layout of Gustavson (1978).
    ``entries``, ``row`` and ``at`` are dense views.  Two matrices are equal
    exactly when their shapes and dense entries are.
    """

    rows: int
    cols: int
    sparse_rows: tuple[SparseRow, ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[object]) -> None:
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        sparse = tuple(_nonzeros(vector(entries[i * cols : (i + 1) * cols])) for i in range(rows))
        _init_mat(self, rows, cols, sparse)

    @staticmethod
    def from_rows(rows: Sequence[Iterable[object]], cols: int | None = None) -> "Mat":
        rows = [vector(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        _check_shape(0, cols)
        return _mat(len(rows), cols, tuple(_nonzeros(r) for r in rows))

    @staticmethod
    def from_sparse_rows(rows: Sequence[Iterable[tuple[int, object]]], cols: int) -> "Mat":
        """The matrix whose row i holds the (column, value) pairs of rows[i];
        columns strictly increase within a row, and zero values are dropped."""
        _check_shape(0, cols)
        out = []
        for r in rows:
            row, last = [], -1
            for j, x in r:
                if not (isinstance(j, int) and last < j < cols):
                    raise ValueError("sparse row columns must increase and lie below the column count")
                last, x = j, frac(x)
                if x:
                    row.append((j, x))
            out.append(tuple(row))
        return _mat(len(out), cols, tuple(out))

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        _check_shape(rows, cols)
        return _mat(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        _check_shape(n, n)
        return _mat(n, n, tuple(((i, _ONE),) for i in range(n)))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(chain.from_iterable(_dense(r, self.cols) for r in self.sparse_rows))

    def at(self, i: int, j: int) -> Fraction:
        for c, x in self.sparse_rows[i]:
            if c == j:
                return x
        return _ZERO

    def row(self, i: int) -> Vector:
        return _dense(self.sparse_rows[i], self.cols)

    def row_list(self) -> list[list[Fraction]]:
        return [list(_dense(r, self.cols)) for r in self.sparse_rows]

    def transpose(self) -> "Mat":
        cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                cols[j].append((i, x))
        return _mat(self.cols, self.rows, tuple(map(tuple, cols)))

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise AmbientMismatch(f"matrix has {self.cols} columns, vector has length {len(v)}")
        return tuple(sum([x * v[j] for j, x in row if v[j]], _ZERO) for row in self.sparse_rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise AmbientMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for row in self.sparse_rows:
            acc: dict[int, Fraction] = {}
            for k, x in row:
                for j, y in other.sparse_rows[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append(tuple((j, acc[j]) for j in sorted(acc) if acc[j]))
        return _mat(self.rows, other.cols, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in matrix sum")
        return _mat(self.rows, self.cols, tuple(map(_row_sum, self.sparse_rows, other.sparse_rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in matrix difference")
        negated = (tuple((j, -x) for j, x in row) for row in other.sparse_rows)
        return _mat(self.rows, self.cols, tuple(map(_row_sum, self.sparse_rows, negated)))

    def scale(self, c: object) -> "Mat":
        c = frac(c)
        if c == 1:
            return self
        if not c:
            return _mat(self.rows, self.cols, ((),) * self.rows)
        return _mat(self.rows, self.cols, tuple(tuple((j, c * x) for j, x in row) for row in self.sparse_rows))


def _mat(rows: int, cols: int, sparse_rows: tuple[SparseRow, ...]) -> Mat:
    """A matrix from rows already in stored form, taken as they are.

    Stored form is what ``Mat.from_sparse_rows`` makes of its input: a tuple
    of row tuples, columns increasing and below cols, no zero values, and
    every value a ``Fraction``.  The constructors coerce through ``frac``, so
    a small integer there is the shared one; computed rows (rref,
    ``Mat.__matmul__``) hold fresh ``Fraction``s apart from the ``_ONE``s of
    a row divided by its pivot, and no reader relies on identity (see kron).
    Rows written in this form by construction skip that constructor's
    per-entry checks: the built-in stabilizer constraints, the irreducible
    operators (gl2._lie_op), the cocharacter flags and the Hom systems are
    written so.  In place of the tuple, a sequence that
    writes such rows on request and otherwise behaves as their tuple does
    is taken too (gl2._OnRequest, which holds the matrix-variety
    constraints and the binary-forms reflection)."""
    m = object.__new__(Mat)
    _init_mat(m, rows, cols, sparse_rows)
    return m


def _init_mat(m: Mat, rows: int, cols: int, sparse_rows: tuple[SparseRow, ...]) -> None:
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "sparse_rows", sparse_rows)


def _nonzeros(v: Sequence[object]) -> SparseRow:
    return tuple([(j, x) for j, x in enumerate(v) if x])


def _dense(row: SparseRow, n: int) -> Vector:
    out = [_ZERO] * n
    for j, x in row:
        out[j] = x
    return tuple(out)


def _row_sum(a: SparseRow, b: SparseRow) -> SparseRow:
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for j, y in b:
        acc[j] = acc[j] + y if j in acc else y
    return tuple((j, acc[j]) for j in sorted(acc) if acc[j])


def vstack(a: Mat, b: Mat) -> Mat:
    if a.cols != b.cols:
        raise AmbientMismatch("column count mismatch in vertical stack")
    return _mat(a.rows + b.rows, a.cols, a.sparse_rows + b.sparse_rows)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; index of the left factor varies slowest.

    Only products of nonzeros are formed, and a factor that is the shared
    one is copied rather than multiplied, so a Kronecker product with an
    identity does no arithmetic.
    """
    out = []
    for a_row in a.sparse_rows:
        for b_row in b.sparse_rows:
            row = [(j * b.cols + k, y if x is _ONE else x if y is _ONE else x * y) for j, x in a_row for k, y in b_row]
            out.append(tuple(row))
    return _mat(a.rows * b.rows, a.cols * b.cols, tuple(out))


def _echelon(m: Mat) -> dict[int, dict[int, int]]:
    """Echelon rows of m keyed by leading column: primitive integer rows,
    each a dict from column to nonzero int, spanning the row space of m.

    The nonzero rows are taken shortest first, each scaled by the lcm of its
    denominators and divided by its content, and reduced at its leading
    column against the row kept there until it leads at a new column, where
    it is kept, or vanishes.  Once a row is kept at every column, the rows
    left lie in their span and are not read."""
    rows: dict[int, dict[int, int]] = {}
    for row in sorted(filter(None, m.sparse_rows), key=len):
        v = _primitive(row)
        while v:
            c = min(v)
            if c not in rows:
                rows[c] = v
                break
            v = _cancel(v, rows[c], c)
        if len(rows) == m.cols:
            break
    return rows


def _cancel(v: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """The integer combination of v and p that is zero at column c, divided
    by its content: v times p[c] / g minus p times v[c] / g, g their gcd.
    A row reduced until it leads at a column is the primitive vector, in the
    span of its own row and the rows kept left of that column, that vanishes
    at their pivots: by Cramer's rule, minors of the integer rows divided by
    their gcd, as in Bareiss's method, so its entries are no larger."""
    a, b = p[c], v[c]
    g = gcd(a, b)
    ka, kb = a // g, b // g
    out = {j: ka * x for j, x in v.items()} if ka != 1 else dict(v)
    for j, y in p.items():
        out[j] = out.get(j, 0) - kb * y
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items() if x}


def _primitive(row: SparseRow) -> dict[int, int]:
    """The stored-form row scaled by the lcm of its denominators and divided
    by its content: a primitive integer row, column to nonzero int (empty
    for the zero row)."""
    den = lcm(*[x.denominator for _, x in row])
    nums = [x.numerator * (den // x.denominator) for _, x in row]
    g = gcd(*nums)
    return {j: x // g for (j, _), x in zip(row, nums)}


def _unit_row(row: dict[int, int], c: int) -> SparseRow:
    """The integer row divided by its entry at its pivot c, in stored form:
    _ONE at c, and wherever else the row equals its pivot entry."""
    a = row[c]
    return tuple([(j, _ONE if x == a else Fraction(x, a)) for j, x in sorted(row.items())])


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.  Row space is preserved.

    The echelon rows of _echelon are cleared at the later pivots, last pivot
    first, so each row is cleared against rows already reduced; each row is
    then divided by its pivot once, which is the only Fraction arithmetic.
    """
    rows = _echelon(m)
    pivots = sorted(rows)
    for c in reversed(pivots):
        row = rows[c]
        for q in [j for j in row if j != c and j in rows]:
            row = _cancel(row, rows[q], q)
        rows[c] = row
    out = [_unit_row(rows[c], c) for c in pivots]
    out.extend([()] * (m.rows - len(pivots)))
    return _mat(m.rows, m.cols, tuple(out)), tuple(pivots)


def rank(m: Mat) -> int:
    """Rank of m: the number of its echelon rows, with no back-substitution."""
    return len(_echelon(m))


@dataclass(frozen=True, init=False, slots=True)
class Subspace:
    """Subspace of QQ^n, held as its reduced row echelon basis (canonical).

    Basis row i is ``sparse_rows[i]``: its (column, value) nonzeros in
    column order, the layout of ``Mat.sparse_rows``, so that a row's first
    pair is its pivot with value 1.  ``basis`` is the dense view.  Two
    subspaces are equal exactly when their ambient dimensions and echelon
    bases are, and every check costs the basis's nonzeros.
    """

    ambient_dim: int
    sparse_rows: tuple[SparseRow, ...]

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence[object]]) -> None:
        """The subspace whose reduced row echelon basis is given as dense rows."""
        check_dim(ambient_dim)
        rows = tuple(tuple([(j, x) for j, x in enumerate(map(frac, row)) if x]) for row in basis)
        if any(len(row) != ambient_dim for row in basis) or not _is_echelon(rows, ambient_dim):
            # Raise the fault that a check of one row at a time meets first:
            # for row i, its length, a nonzero entry, a leading 1 right of the
            # previous pivot, then its pivot column, read in every other row
            # in order.  This reads entry by entry, so it runs only once the
            # O(nnz) check has failed.
            last = -1
            for i, row in enumerate(basis):
                if len(row) != ambient_dim:
                    raise AmbientMismatch("basis row length does not match ambient dimension")
                p = next((j for j, x in enumerate(row) if x), None)
                if p is None:
                    raise ValueError("zero row in subspace basis")
                if p <= last or row[p] != 1 or any(basis[k][p] for k in range(len(basis)) if k != i):
                    raise ValueError(_NOT_RREF)
                last = p
            raise ValueError(_NOT_RREF)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "sparse_rows", rows)

    @staticmethod
    def from_sparse_rows(ambient_dim: int, rows: Iterable[SparseRow]) -> "Subspace":
        """The subspace whose reduced row echelon basis is given as rows in
        the stored layout of ``Mat.sparse_rows``; the rows are kept, not
        copied, so subspaces built from the same rows share them."""
        check_dim(ambient_dim)
        rows = tuple(map(tuple, rows))
        if not _is_echelon(rows, ambient_dim):
            raise ValueError("zero row in subspace basis" if not all(rows) else _NOT_RREF)
        return _subspace(ambient_dim, rows)

    @staticmethod
    def row_space(m: Mat) -> "Subspace":
        """The span of the rows of m."""
        red, pivots = rref(m)
        return _subspace(m.cols, red.sparse_rows[: len(pivots)])

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence[Iterable[object]]) -> "Subspace":
        check_dim(ambient_dim)
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("spanning vector length does not match ambient dimension")
        return Subspace.row_space(_mat(len(vecs), ambient_dim, tuple(_nonzeros(v) for v in vecs)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        check_dim(ambient_dim)
        return _subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        check_dim(ambient_dim)
        return _subspace(ambient_dim, Mat.identity(ambient_dim).sparse_rows)

    @property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(_dense(row, self.ambient_dim) for row in self.sparse_rows)

    def dim(self) -> int:
        return len(self.sparse_rows)

    def is_full(self) -> bool:
        return self.dim() == self.ambient_dim

    def basis_matrix(self) -> Mat:
        return _mat(len(self.sparse_rows), self.ambient_dim, self.sparse_rows)

    def annihilator_matrix(self) -> Mat:
        """Rows u with u.v = 0 for all v in the subspace; v lies in the
        subspace iff this matrix kills v.

        Read off the echelon rows by _null_rows, with no elimination: one
        row per non-pivot column, unique to the subspace (though not the
        echelon basis of its annihilator)."""
        return _null_rows(self.sparse_rows, self.ambient_dim)

    def contains_rows(self, m: Mat) -> bool:
        """Whether every row of m lies in the subspace.  A row w does exactly
        when w minus w[p] times the basis row of pivot p, summed over the
        pivots p, vanishes: each basis row is zero in the other pivot
        columns, so these coefficients are read off w itself."""
        if m.cols != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        by_pivot = {row[0][0]: row for row in self.sparse_rows}
        for w in m.sparse_rows:
            rest = dict(w)
            for p, c in w:
                for j, x in by_pivot.get(p, ()):
                    rest[j] = rest.get(j, 0) - c * x
            if any(rest.values()):
                return False
        return True

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.contains_rows(other.basis_matrix())


def _subspace(ambient_dim: int, sparse_rows: tuple[SparseRow, ...]) -> Subspace:
    """A subspace from rows already in stored form (see _mat) and reduced
    row echelon form, taken as they are."""
    s = object.__new__(Subspace)
    _set(s, "ambient_dim", ambient_dim)
    _set(s, "sparse_rows", sparse_rows)
    return s


def _extend_echelon(rows: dict[int, dict[int, int]], v: SparseRow) -> list[int]:
    """Add the stored-form row v, in place, to echelon rows keyed by pivot:
    primitive integer rows, each leading at its pivot and zero at every
    other pivot, as rref holds them before its division.  Returns the
    pivots of the rows that changed, the new row's first, or an empty list,
    with rows unchanged, when v already lies in their span.

    v is made primitive and cancelled (_cancel) at each pivot where it is
    nonzero; the rows are zero at each other's pivots, so one cancellation
    per pivot clears it there.  What is left leads at a new pivot q and is
    cancelled out of every row that is nonzero at q."""
    new = _primitive(v)
    for p in [j for j in new if j in rows]:
        new = _cancel(new, rows[p], p)
    if not new:
        return []
    q = min(new)
    changed = [q]
    for p, row in rows.items():
        if q in row:
            rows[p] = _cancel(row, new, q)
            changed.append(p)
    rows[q] = new
    return changed


def _is_echelon(rows: Sequence[SparseRow], n: int) -> bool:
    """Whether rows are a reduced row echelon basis of QQ^n in stored form.

    Each row leads with a 1 right of the previous row's pivot, its other
    columns increase and lie below n, its values are nonzero Fractions, and
    no row has another nonzero in a pivot column.  Runs in O(nnz) against
    the set of pivots.
    """
    if not all(rows):
        return False
    pivots = [row[0][0] for row in rows]
    leads = [row[0][1] for row in rows]
    steps = [(a, b) for row in rows if len(row) > 1 for (a, _), b in zip(row, row[1:])]
    pivot_set = set(pivots)
    return (
        set(map(type, pivots)) <= {int}
        and all(map(lt, [-1] + pivots, pivots + [n]))
        and set(map(type, leads)) <= {Fraction}
        and leads.count(_ONE) == len(leads)
        and all(a < j < n and j not in pivot_set and type(x) is Fraction and x for a, (j, x) in steps)
    )


def _null_rows(rows: Sequence[SparseRow], n: int) -> Mat:
    """The null-space rows of reduced row echelon rows in stored form: one
    row per non-pivot column c of QQ^n, holding 1 at c and -row_i[c] at the
    pivot p_i of each row i.  Row i meets it in -row_i[c] + row_i[c], since
    it is zero at the other pivots.  A row is nonzero at c only if its pivot
    lies left of c, so these rows come out in stored form too, and each is
    the unit vector at c among the non-pivot columns."""
    by_column: dict[int, list[tuple[int, Fraction]]] = {c: [] for c in range(n)}
    for row in rows:
        p = row[0][0]
        del by_column[p]
        for j, x in row[1:]:
            by_column[j].append((p, -x))
    return _mat(len(by_column), n, tuple([(*pairs, (c, _ONE)) for c, pairs in by_column.items()]))


def kernel(m: Mat) -> Subspace:
    """Right kernel {v : m.v = 0} as a canonical subspace of QQ^cols: the
    span of the null-space rows of the reduced row echelon rows of m."""
    red, pivots = rref(m)
    return Subspace.row_space(_null_rows(red.sparse_rows[: len(pivots)], m.cols))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspace sum needs matching ambient dimensions")
    return Subspace.row_space(vstack(a.basis_matrix(), b.basis_matrix()))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspace intersection needs matching ambient dimensions")
    return kernel(vstack(a.annihilator_matrix(), b.annihilator_matrix()))


def subspace_contains(s: Subspace, v: Iterable[object]) -> bool:
    """Membership of a vector in the row space, by reduction against the
    echelon basis."""
    w = vector(v)
    return s.contains_rows(_mat(1, len(w), (_nonzeros(w),)))
