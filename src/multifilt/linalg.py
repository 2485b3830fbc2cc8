"""Exact linear algebra over the rationals.

Matrices are dense, immutable and carry ``Fraction`` entries.  Subspaces are
stored by their reduced row echelon basis, so two equal subspaces have equal
representations and ``==`` is a genuine subspace equality test.

Elimination runs on integers.  Each row is scaled by the lcm of its
denominators and reduced fraction-free on Python ints; rank stops at the
echelon form, and the canonical ``Fraction`` reduced row echelon form is
produced only at the boundary, by dividing each pivot row by its pivot once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

QQ = Fraction

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AmbientMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


def frac(x: object) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return _ZERO if x == 0 else _ONE if x == 1 else Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vector(entries: Iterable[object]) -> Vector:
    return tuple(frac(x) for x in entries)


@dataclass(frozen=True)
class Mat:
    """Dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Iterable[object]], cols: int | None = None) -> "Mat":
        rows = [vector(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        flat = tuple(x for r in rows for x in r)
        return Mat(len(rows), cols, flat)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise AmbientMismatch(f"matrix has {self.cols} columns, vector has length {len(v)}")
        return tuple(sum([x * y for x, y in zip(self.row(i), v) if x and y], _ZERO) for i in range(self.rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise AmbientMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.at(k, j) for k in range(self.cols)), Fraction(0)))
        return Mat(self.rows, other.cols, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in matrix sum")
        # a zero right entry keeps the left one: operators are mostly zeros
        return Mat(self.rows, self.cols, tuple(a + b if b else a for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("shape mismatch in matrix difference")
        return Mat(self.rows, self.cols, tuple(a - b if b else a for a, b in zip(self.entries, other.entries)))

    def scale(self, c: object) -> "Mat":
        c = frac(c)
        return Mat(self.rows, self.cols, tuple(c * x for x in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def vstack(a: Mat, b: Mat) -> Mat:
    if a.cols != b.cols:
        raise AmbientMismatch("column count mismatch in vertical stack")
    return Mat(a.rows + b.rows, a.cols, a.entries + b.entries)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; index of the left factor varies slowest.

    Zero entries on either side are copied rather than multiplied, so the
    many zeros of sparse operators cost no arithmetic and share one object.
    """
    out: list[Fraction] = []
    zero_row = (Fraction(0),) * b.cols
    for i in range(a.rows):
        a_row = a.row(i)
        for k in range(b.rows):
            b_row = b.row(k)
            for aij in a_row:
                out.extend([aij * x if x else x for x in b_row] if aij else zero_row)
    return Mat(a.rows * b.rows, a.cols * b.cols, tuple(out))


def _int_rows(m: Mat) -> list[list[int]]:
    """The rows of m, each scaled by the lcm of its denominators and divided
    by its content: primitive integer rows spanning the same row space."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row] if den != 1 else [x.numerator for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _eliminate(rows: list[list[int]], cols: int, reduced: bool) -> list[int]:
    """Fraction-free row reduction of primitive integer rows, in place.

    In each column the pivot is the first nonzero row at or below the current
    one.  Every other row with a nonzero entry there becomes the integer
    combination that cancels it, divided by its content.  Such a row spans
    the same line as the row Bareiss's method would hold, so its entries are
    no larger than minors of the integer matrix.  Only rows below the pivot
    are cleared unless ``reduced``, which clears the rows above too and
    leaves each pivot row an integer multiple of its reduced row echelon row.
    Returns the pivot columns; the pivot rows come first.
    """
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        a = prow[c]
        for i in range(0 if reduced else r + 1, len(rows)):
            b = rows[i][c]
            if b and i != r:
                g = gcd(a, b)
                ka, kb = a // g, b // g
                new = [ka * x - kb * y if y else ka * x for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.  Row space is preserved.

    The elimination runs on integer rows; each pivot row is divided by its
    pivot once at the end, which is the only Fraction arithmetic.
    """
    rows = _int_rows(m)
    pivots = _eliminate(rows, m.cols, reduced=True)
    out: list[Fraction] = []
    for row, c in zip(rows, pivots):
        a = row[c]
        out.extend([_ONE if x == a else Fraction(x, a) if x else _ZERO for x in row])
    out.extend([_ZERO] * ((m.rows - len(pivots)) * m.cols))
    return Mat(m.rows, m.cols, tuple(out)), tuple(pivots)


def rank(m: Mat) -> int:
    return len(_eliminate(_int_rows(m), m.cols, reduced=False))


@dataclass(frozen=True)
class Subspace:
    """Subspace of QQ^n, held as a reduced row echelon basis (canonical)."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        last_pivot = -1
        for i, row in enumerate(self.basis):
            if len(row) != self.ambient_dim:
                raise AmbientMismatch("basis row length does not match ambient dimension")
            p = next((j for j, x in enumerate(row) if x != 0), None)
            if p is None:
                raise ValueError("zero row in subspace basis")
            if p <= last_pivot or row[p] != 1:
                raise ValueError("subspace basis is not in reduced row echelon form")
            for k in range(len(self.basis)):
                if k != i and self.basis[k][p] != 0:
                    raise ValueError("subspace basis is not in reduced row echelon form")
            last_pivot = p

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence[Iterable[object]]) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("spanning vector length does not match ambient dimension")
        red, pivots = rref(Mat(len(vecs), ambient_dim, tuple(x for v in vecs for x in v)))
        return Subspace(ambient_dim, tuple(red.row(i) for i in range(len(pivots))))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(ambient_dim, [r for r in Mat.identity(ambient_dim).row_list()])

    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim() == self.ambient_dim

    def basis_matrix(self) -> Mat:
        return Mat(len(self.basis), self.ambient_dim, tuple(x for v in self.basis for x in v))

    def annihilator_matrix(self) -> Mat:
        """Rows u with u.v = 0 for all v in the subspace; v lies in the
        subspace iff this matrix kills v."""
        ann = kernel(self.basis_matrix()).basis
        return Mat(len(ann), self.ambient_dim, tuple(x for v in ann for x in v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(subspace_contains(self, v) for v in other.basis)


def kernel(m: Mat) -> Subspace:
    """Right kernel {v : m.v = 0} as a canonical subspace of QQ^cols."""
    rows = _int_rows(m)
    pivots = _eliminate(rows, m.cols, reduced=True)
    pivot_set = set(pivots)
    vecs = []
    for c in range(m.cols):
        if c in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[c] = _ONE
        for row, pc in zip(rows, pivots):
            if row[c]:
                v[pc] = Fraction(-row[c], row[pc])
        vecs.append(v)
    return Subspace.span(m.cols, vecs)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspace sum needs matching ambient dimensions")
    return Subspace.span(a.ambient_dim, list(a.basis) + list(b.basis))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspace intersection needs matching ambient dimensions")
    return kernel(vstack(a.annihilator_matrix(), b.annihilator_matrix()))


def subspace_contains(s: Subspace, v: Iterable[object]) -> bool:
    """Membership of a vector in the row space, by reduction against the
    echelon basis."""
    w = list(vector(v))
    if len(w) != s.ambient_dim:
        raise AmbientMismatch("vector length does not match ambient dimension")
    p = -1
    for row in s.basis:
        p = next(j for j in range(p + 1, s.ambient_dim) if row[j])
        c = w[p]
        if c:
            w = [a - c * b if b else a for a, b in zip(w, row)]
    return not any(w)
