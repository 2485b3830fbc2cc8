"""Concrete representation data for GL2 and GL2 x GL2.

Irreducible GL2 representations are labeled (n, m): the n-th symmetric power
of the standard representation twisted by the m-th power of the determinant.
They are realized on the monomial basis x^(n-j) y^j, j = 0..n, where the
diagonal torus diag(t1, t2) acts on basis vector j with weight
(n - j + m, j + m).  External products for GL2 x GL2 are labeled by a
pair of such pairs, ((n, m), (n2, m2)).  Labels are plain tuples; every
module reads them through label_factors and builds them through
label_from_factors.

Operator conventions.  Action operators are column-convention matrices
(columns are images of basis vectors) and are listed in a fixed order so
that operators of two representations can be paired positionally:

    GL2:       (e, f, h1, h2)       e = raising, f = lowering,
                                    h1, h2 = diagonal torus generators
    GL2 x GL2: the four operators of the left factor (Kronecker with the
               identity on the right), then the four of the right factor.

The raising operator e sends basis vector j to j * (vector j-1), shifting
weights by (1, -1); f sends j to (n - j) * (vector j+1); [e, f] = h1 - h2.
The determinant twist shifts h1 and h2 by m but leaves e and f alone.

The stabilizer constraints of both built-in examples are written directly
from their labels, in closed form, as column-convention sparse rows in
stored form.  The binary-forms torus is written whole, as it is read whole.
The binary-forms reflection and the matrix-variety constraints hold their
rows in an _OnRequest, which writes each row when it is first read and
keeps it, so a Hom solve writes the rows at the coordinates it keeps; the
matrix torus pairs, and the reflection at n = 0, also carry their integer
eigenvalues, which GroupActionData.diagonals hands over as they are.  The
operators of an external product are held the same way, each built when
first read: nothing on the multiplicity path reads them, since the
stabilizers and flags are written from the label and the weights.  The
irreducible operators themselves are written in stored form too, by
_lie_op, in Fraction arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import comb, prod

from .linalg import _SMALL, Mat, SparseRow, _mat, check_dim, kron

Weight = tuple[int, ...]
Gl2Label = tuple[int, int]

# The groups that have labeled irreducibles, by the number of (n, m) factors
# in their labels: (n, m) for GL2, ((n, m), (n2, m2)) for GL2 x GL2.
GROUP_FACTORS = {"GL2": 1, "GL2xGL2": 2}

_NEGATIVE_DEGREE = "the symmetric-power degree n must be nonnegative"

H_STYLE_LIE_ONLY = "lie_only"
H_STYLE_LIE_PLUS_ELEMENTS = "lie_plus_elements"
H_STYLES = (H_STYLE_LIE_ONLY, H_STYLE_LIE_PLUS_ELEMENTS)

@dataclass(frozen=True)
class RepData:
    """A representation as weight data plus explicit action operators.

    Each operator of an external product is built, and checked, when first
    read (see external_rep); any other sequence of operators is checked
    here."""

    dim: int
    weights: tuple[Weight, ...]
    action_ops: Sequence[Mat]
    label: object = None

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if len(self.weights) != self.dim:
            raise ValueError("need one weight per basis vector")
        if type(self.action_ops) is not _OnRequest:
            _check_ops(self.action_ops, self.dim)


def _check_ops(ops: Sequence[Mat], dim: int) -> None:
    for op in ops:
        if op.rows != dim or op.cols != dim:
            raise ValueError("action operators must be square of the representation dimension")


class _OnRequest(Sequence):
    """A sequence of n items, item k built as build(k) on its first read and
    then kept; build returns no None.

    ``len`` builds nothing, and an int index builds that item alone (a
    negative one counts from the end, as for a tuple).  Iterating, slicing,
    ``+`` on either side, ``==``, ``hash`` and ``repr`` build every item and
    behave as the tuple of them does, so a Mat holding the rows of a
    constraint this way equals, hashes, prints and stacks as the Mat of
    those rows.  The rows of a diagonal constraint carry its
    ``eigenvalues``, which GroupActionData.diagonals reads without reading a
    row; they are None for the rows of any other constraint and for
    operators."""

    __slots__ = ("_build", "_items", "eigenvalues")

    def __init__(self, n: int, build: Callable[[int], object], eigenvalues: tuple[int, ...] | None = None) -> None:
        self._build, self._items, self.eigenvalues = build, [None] * n, eigenvalues

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k):
        if type(k) is not int:
            return tuple(self)[k]
        item = self._items[k]
        if item is None:
            item = self._items[k] = self._build(k % len(self._items))
        return item

    def __iter__(self):
        return map(self.__getitem__, range(len(self._items)))

    def __add__(self, other: tuple) -> tuple:
        return tuple(self) + other

    def __radd__(self, other: tuple) -> tuple:
        return other + tuple(self)

    def __eq__(self, other: object) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class GroupActionData:
    """Equivariance constraints: a map f between two objects carrying data
    (A_1..A_k) and (B_1..B_k) is equivariant iff f A_i = B_i f for all i.

    Each constraint is classified once, on the first read of diagonals, and
    every Hom solve against the object reads that classification.  Rows
    written on request are not read to classify them: their eigenvalues, or
    None, are kept with them."""

    dim: int
    intertwiner_constraints: tuple[Mat, ...]

    def __post_init__(self) -> None:
        check_dim(self.dim)
        for op in self.intertwiner_constraints:
            if op.rows != self.dim or op.cols != self.dim:
                raise ValueError("constraint matrices must be square of the object dimension")

    @cached_property
    def diagonals(self) -> tuple[tuple[int | Fraction, ...] | None, ...]:
        """Per constraint, its diagonal entries (its eigenvalues on the basis
        vectors) if it has no other nonzero entry, else None.  Integral
        entries come back as ints: the Hom solvers compare them one basis
        vector at a time, and two ints compare far cheaper than Fractions."""
        return tuple(
            [k.sparse_rows.eigenvalues if type(k.sparse_rows) is _OnRequest else _diagonal(k) for k in self.intertwiner_constraints]
        )

    @cached_property
    def bidiagonals(self) -> tuple[bool, ...]:
        """Per constraint, whether diagonals leaves it general and row i has
        no nonzero entry outside columns i and i + 1 (upper bidiagonal).
        Rows written on request are not read, and are never taken as
        bidiagonal.  Classified once, on first read, as diagonals is."""
        return tuple(
            [
                e is None and type(k.sparse_rows) is not _OnRequest and _upper_bidiagonal(k)
                for k, e in zip(self.intertwiner_constraints, self.diagonals)
            ]
        )


def _upper_bidiagonal(m: Mat) -> bool:
    return all(0 <= j - i <= 1 for i, row in enumerate(m.sparse_rows) for j, _ in row)


def _diagonal(m: Mat) -> tuple[int | Fraction, ...] | None:
    out = []
    for i, row in enumerate(m.sparse_rows):
        if row and (len(row) > 1 or row[0][0] != i):
            return None
        x = row[0][1] if row else 0
        out.append(x.numerator if x.denominator == 1 else x)
    return tuple(out)


def _lie_op(x: Mat, n: int, m: int) -> Mat:
    """Derived action of the 2x2 matrix x on monomials, plus m tr(x) from
    the determinant twist.  Row i has at most three nonzeros: (n - i + 1) c
    in column i - 1, the diagonal entry, and (i + 1) b in column i + 1.

    The rows are written in stored form (see linalg._mat): the off-diagonal
    values are nonzero whenever b or c is, a zero diagonal entry is left
    out, and every value is a Fraction, since x's entries are."""
    a, b, c, d = x.at(0, 0), x.at(0, 1), x.at(1, 0), x.at(1, 1)
    tw = m * (a + d)
    rows = []
    for i in range(n + 1):
        row = ((i - 1, (n - i + 1) * c),) if i and c else ()
        h = (n - i) * a + i * d + tw
        if h:
            row += ((i, h),)
        if i < n and b:
            row += ((i + 1, (i + 1) * b),)
        rows.append(row)
    return _mat(n + 1, n + 1, tuple(rows))


_E12 = Mat.from_rows([[0, 1], [0, 0]])
_E21 = Mat.from_rows([[0, 0], [1, 0]])
_E11 = Mat.from_rows([[1, 0], [0, 0]])
_E22 = Mat.from_rows([[0, 0], [0, 1]])


def irrep_gl2(n: int, m: int) -> RepData:
    """The irreducible GL2 representation labeled (n, m)."""
    if n < 0:
        raise ValueError(_NEGATIVE_DEGREE)
    weights = tuple([(n - j + m, j + m) for j in range(n + 1)])
    ops = tuple(_lie_op(x, n, m) for x in (_E12, _E21, _E11, _E22))
    return RepData(n + 1, weights, ops, label=(n, m))


def dual(n: int, m: int) -> Gl2Label:
    """Label of the dual representation; involutive."""
    if n < 0:
        raise ValueError(_NEGATIVE_DEGREE)
    return (n, -n - m)


def clebsch_gordan(a: Gl2Label, b: Gl2Label) -> tuple[Gl2Label, ...]:
    """Decomposition of (n, m) tensor (n', m') into irreducible labels."""
    n, m = a
    np_, mp = b
    if n < 0 or np_ < 0:
        raise ValueError("the symmetric-power degrees must be nonnegative")
    return tuple((n + np_ - 2 * j, m + mp + j) for j in range(min(n, np_) + 1))


def external_rep(a: Gl2Label, b: Gl2Label) -> RepData:
    """External product of two GL2 irreducibles as a GL2 x GL2 representation.

    Each of its Kronecker-product operators is built when first read."""
    left = irrep_gl2(*a)
    right = irrep_gl2(*b)
    weights = tuple(w1 + w2 for w1 in left.weights for w2 in right.weights)
    return RepData(left.dim * right.dim, weights, _OnRequest(8, partial(_product_op, left, right)), label=(a, b))


def _product_op(left: RepData, right: RepData, k: int) -> Mat:
    """Operator k of the external product, in the order of the module
    docstring, checked for shape as RepData checks a tuple of operators."""
    op = kron(left.action_ops[k], Mat.identity(right.dim)) if k < 4 else kron(Mat.identity(left.dim), right.action_ops[k - 4])
    _check_ops((op,), left.dim * right.dim)
    return op


def stabilizer_action_binary_forms(n: int, m: int, style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> GroupActionData:
    """Equivariance constraints for the binary-forms stabilizer on (n, m).

    The connected stabilizer of the base quadratic form is the torus
    t -> [[t, 1/t - t], [0, 1/t]], generated by X = [[1, -2], [0, -1]];
    lie_only uses X alone, and the m-twist drops out because tr X = 0.  The
    default style also adds the reflection g = [[1, 0], [1, -1]]
    (determinant -1, g^2 = 1) generating the stabilizer's second component,
    whose action on (n, m) carries the factor det(g)^m = (-1)^m; the torus
    element at t = -1 is minus the identity, which lies in the connected
    component and adds no constraint beyond the generator.
    """
    if style not in H_STYLES:
        raise ValueError(f"unknown constraint style {style!r}")
    if n < 0:
        raise ValueError(_NEGATIVE_DEGREE)
    # Both constraints are written in stored form: increasing columns, no
    # zero values, each value one lookup in linalg's shared table (a fresh
    # Fraction past it).  The torus is written whole: X acts as _lie_op
    # does with a, b, c, d = 1, -2, 0, -1, so row i holds
    # (n - i) a + i d = n - 2i on the diagonal, dropped where it is zero,
    # and (i + 1) b = -2(i + 1) in column i + 1.
    torus = _mat(
        n + 1,
        n + 1,
        tuple([((i, _SMALL[n - 2 * i]),) * (2 * i != n) + ((i + 1, _SMALL[-2 * (i + 1)]),) * (i < n) for i in range(n + 1)]),
    )
    if style == H_STYLE_LIE_ONLY:
        return GroupActionData(n + 1, (torus,))
    # g's rows are written on request from the label (_reflection_row); at
    # n = 0 it is the scalar det(g)^m, which it carries as its eigenvalue
    eigenvalues = ((-1) ** (m % 2),) if n == 0 else None
    reflection = _mat(n + 1, n + 1, _OnRequest(n + 1, partial(_reflection_row, n, m), eigenvalues))
    return GroupActionData(n + 1, (torus, reflection))


def _reflection_row(n: int, m: int, r: int) -> SparseRow:
    # g sends basis vector x^(n-c) y^c, in column c, to the expansion of
    # (x + y)^(n-c) (-y)^c, whose coefficient on x^(n-r) y^r is
    # (-1)^c binom(n - c, r - c) for r >= c; with det(g)^m this is the
    # lower-triangular entry (r, c), all of whose binomials are nonzero
    return tuple([(c, _SMALL[(-1) ** ((m + c) % 2) * comb(n - c, r - c)]) for c in range(r + 1)])


def label_factors(label: object) -> tuple[Gl2Label, ...]:
    """The (n, m) factors of a label, one per GL2 factor, after checking
    that the label names a representation: a pair (n, m) or a pair of pairs,
    as tuples or lists, of ints with every n >= 0."""
    if isinstance(label, (tuple, list)) and label and type(label[0]) is int:
        return _checked_factors((label,), label)
    return _checked_factors(label, label)


def label_from_factors(factors: Sequence[Sequence[int]]) -> object:
    """The label with the given (n, m) factors, checked as label_factors
    checks it; the inverse of label_factors."""
    checked = _checked_factors(factors, factors)
    return checked[0] if len(checked) == 1 else checked


def _checked_factors(factors: object, label: object) -> tuple[Gl2Label, ...]:
    if not (
        isinstance(factors, (tuple, list))
        and len(factors) in GROUP_FACTORS.values()
        and all(isinstance(f, (tuple, list)) and len(f) == 2 and type(f[0]) is type(f[1]) is int for f in factors)
    ):
        raise ValueError(f"bad label {label!r}: expected (n, m) or ((n, m), (n2, m2)) with integer n and m")
    if any(f[0] < 0 for f in factors):
        raise ValueError(_NEGATIVE_DEGREE)
    return tuple(map(tuple, factors))


def group_label_factors(group: str, label: object) -> tuple[Gl2Label, ...]:
    """The (n, m) factors of a label, after checking that it names an
    irreducible of the group (GL2 or GL2 x GL2); builds nothing."""
    if group not in GROUP_FACTORS:
        raise ValueError(f"no labeled representations for group {group!r}")
    factors = label_factors(label)
    if len(factors) != GROUP_FACTORS[group]:
        raise ValueError(f"label {label!r} does not fit group {group}")
    return factors


def rep_from_label(group: str, label: object) -> RepData:
    """Build the representation for a GL2 or GL2 x GL2 label."""
    factors = group_label_factors(group, label)
    return irrep_gl2(*factors[0]) if len(factors) == 1 else external_rep(*factors)


def weights_of_label(label: object) -> tuple[Weight, ...]:
    """Weight list of a labeled irreducible without building operators."""
    weights: list[Weight] = [()]
    for n, m in label_factors(label):
        weights = [w + (n - j + m, j + m) for w in weights for j in range(n + 1)]
    return tuple(weights)


def label_dim(label: object) -> int:
    """Dimension of a labeled irreducible without building it."""
    return prod(n + 1 for n, _ in label_factors(label))
