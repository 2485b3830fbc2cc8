"""Seeded inputs, operations and per-op correctness gates of the benchmark.

Every input is generated here from the workload seed; the library only ever
sees the generated objects.  Each operation returns True exactly when the
library's answers pass its gate, so a wrong answer and an exception both
count as a failed op.  Expected answers are the paper's closed forms,
computed here and never by the library.

All library calls look their function up on the package object at call
time (``mf.multiplicity(...)``), so timing wrappers installed on the
package, and test doubles, take effect without rebuilding the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ORACLE_MAX_DEGREE = 20


@dataclass(frozen=True)
class Sizes:
    """How much input one pass of each workload holds."""

    forms_n: range = range(0, 9)
    forms_m: range = range(-6, 7)
    matrix_n: range = range(0, 5)
    matrix_m: range = range(-2, 4)
    large_ns: tuple[int, ...] = (4, 8, 12)
    spaces: int = 504
    pairs: int = 225


PAPER = Sizes()


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``inputs`` is plain data describing the generated input; its repr is
    compared across repeated set-ups to show that the seed alone fixes it.
    """

    key: str
    inputs: tuple
    run: Callable[[], bool]


# ---------------------------------------------------------------- grids


def forms_indicator(n: int, m: int) -> int:
    """Binary quadratic forms: (n, m) occurs, once, iff n and m are even and m >= 0."""
    return 1 if n % 2 == 0 and m % 2 == 0 and m >= 0 else 0


def matrix_indicator(label) -> int:
    """2x2 matrices: (n, m) x (n', m') occurs, once, iff n = n', m = m' and m >= 0."""
    (n, m), (n2, m2) = label
    return 1 if n == n2 and m == m2 and m >= 0 else 0


def _cell_op(mf, spec, group: str, label, expected: int) -> Op:
    def run() -> bool:
        hom = mf.multiplicity(mf.rep_from_label(group, label), spec)
        oracle = mf.oracle_multiplicity(spec, label, max_degree=ORACLE_MAX_DEGREE)
        return hom == oracle == expected

    return Op(f"{group}:{label}", (group, label, expected), run)


def paper_grids(mf, rng: random.Random, sizes: Sizes) -> list[Op]:
    """Both tables of the paper, one op per cell, in a seeded order."""
    forms = mf.builtin_variety(mf.BINARY_QUADRATIC_FORMS)
    matrices = mf.builtin_variety(mf.TWO_BY_TWO_MATRICES)
    ops = [
        _cell_op(mf, forms, "GL2", (n, m), forms_indicator(n, m))
        for n in sizes.forms_n
        for m in sizes.forms_m
    ]
    for label in [
        ((n, m), (n2, m2))
        for n in sizes.matrix_n
        for m in sizes.matrix_m
        for n2 in sizes.matrix_n
        for m2 in sizes.matrix_m
    ]:
        ops.append(_cell_op(mf, matrices, "GL2xGL2", label, matrix_indicator(label)))
    rng.shuffle(ops)
    return ops


def large_cells(mf, rng: random.Random, sizes: Sizes) -> list[Op]:
    """The matrix-diagonal scaling series ((n, 1), (n, 1)), in a seeded order."""
    matrices = mf.builtin_variety(mf.TWO_BY_TWO_MATRICES)
    labels = [((n, 1), (n, 1)) for n in sizes.large_ns]
    rng.shuffle(labels)
    return [_cell_op(mf, matrices, "GL2xGL2", label, matrix_indicator(label)) for label in labels]


# ------------------------------------------------------- random filtered


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(1, 4) * rng.choice((-1, 1)) if nonzero else rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 3))


def random_invertible_rows(rng: random.Random, dim: int) -> list[list[Fraction]]:
    """Rows of (unit lower) x (upper, nonzero diagonal), shuffled: invertible
    by construction, with dense entries that carry real denominators."""
    lower = [[Fraction(1) if i == j else (_rational(rng) if j < i else Fraction(0)) for j in range(dim)] for i in range(dim)]
    upper = [[_rational(rng, nonzero=True) if i == j else (_rational(rng) if j > i else Fraction(0)) for j in range(dim)] for i in range(dim)]
    rows = [[sum((lower[i][k] * upper[k][j] for k in range(dim)), Fraction(0)) for j in range(dim)] for i in range(dim)]
    rng.shuffle(rows)
    return rows


def random_flag(rng: random.Random, dim: int, nsteps: int, lo: int, hi: int) -> tuple[dict[int, list], tuple]:
    """A flag with ``nsteps`` steps at random indices in a random basis: steps
    {index: spanning rows} and the associated graded pieces it must have, as
    (degree, dimension) pairs."""
    if dim == 0:
        return {}, ()
    basis = random_invertible_rows(rng, dim)
    step_dims = [dim] + sorted(rng.sample(range(1, dim), nsteps - 1), reverse=True)
    indices = sorted(rng.sample(range(lo, hi + 1), nsteps))
    steps = {idx: basis[:d] for idx, d in zip(indices, step_dims)}
    below = step_dims[1:] + [0]
    pieces = tuple((idx, d - b) for idx, d, b in zip(indices, step_dims, below))
    return steps, pieces


def _filtered(mf, dim: int, steps: dict[int, list]):
    return mf.make_filtered(dim, {idx: mf.Subspace.span(dim, rows) for idx, rows in steps.items()})


def _space_op(mf, k: int, rng: random.Random) -> Op:
    dim = k % 7
    steps, pieces = random_flag(rng, dim, 1 + (k // 7) % max(dim, 1), -10, 10)
    fs = _filtered(mf, dim, steps)

    def run() -> bool:
        module = mf.rees_construct(fs)
        graded = mf.associated_graded(fs)
        return mf.derees(module) == fs and mf.fiber_at_zero(module) == graded and graded.pieces == pieces

    return Op(f"space:{k}", (dim, steps, pieces), run)


def _pair_op(mf, k: int, rng: random.Random) -> Op:
    ncons = k % 3
    nfilt = k // 3 % 3
    dims = (1 + k // 9 % 5, 1 + k // 45 % 5)
    plain = []
    objects = []
    for dim in dims:
        diagonals = [[rng.choice((0, 1, 2)) for _ in range(dim)] for _ in range(ncons)]
        flags = [random_flag(rng, dim, 1 + (k + j) % dim, -5, 5)[0] for j in range(nfilt)]
        plain.append((dim, diagonals, flags))
        cons = tuple(
            mf.Mat.from_rows([[d[i] if i == j else 0 for j in range(dim)] for i in range(dim)]) for d in diagonals
        )
        rep = mf.RepData(dim, ((0, 0),) * dim, ())
        objects.append(mf.FiltObject(rep, mf.GroupActionData(dim, cons), tuple(_filtered(mf, dim, f) for f in flags)))
    a, b = objects

    def run() -> bool:
        basis = mf.hom_basis(a, b)
        if len(basis) != mf.hom_dim(a, b):
            return False
        constraints = list(zip(a.h_action.intertwiner_constraints, b.h_action.intertwiner_constraints))
        filtrations = list(zip(a.filtrations, b.filtrations))
        return all(
            all(f @ ka == kb @ f for ka, kb in constraints)
            and all(mf.is_filtration_morphism(f, fa, fb) for fa, fb in filtrations)
            for f in basis
        )

    return Op(f"pair:{k}", tuple(plain), run)


def random_filtered(mf, rng: random.Random, sizes: Sizes) -> list[Op]:
    """Seeded filtered spaces and filtered-object pairs, in a seeded order.

    Shapes are enumerated, not drawn: spaces cycle through dims 0..6 and
    their step counts, pairs through every (dim a, dim b, constraints,
    filtrations) in 1..5 x 1..5 x 0..2 x 0..2.  The seed draws the bases,
    jump indices, constraint diagonals and the order, so every seed asks
    for the same amount of work and runs differ only in content.
    """
    ops = [_space_op(mf, k, rng) for k in range(sizes.spaces)] + [_pair_op(mf, k, rng) for k in range(sizes.pairs)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "paper-grids": paper_grids,
    "large-cells": large_cells,
    "random-filtered": random_filtered,
}


def build(name: str, mf, seed: int, sizes: Sizes = PAPER) -> list[Op]:
    """The ops of one round of a workload; the same seed gives the same ops."""
    return WORKLOADS[name](mf, random.Random(f"{name}:{seed}"), sizes)
