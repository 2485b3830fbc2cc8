"""The left kernel of a cell whose general constraint is upper bidiagonal,
read off that constraint's reduced equations before the other general
constraints are written over it, against the path that writes every
general constraint over the kept coordinates and ranks them all
(reference_left_kernel_dim); the classification that finds such
constraints; and the forms reflection, written only at the rows the
torus kernel reaches."""

import random
from fractions import Fraction

import pytest

from multifilt import gl2, homspaces, varieties
from multifilt.gl2 import H_STYLES, GroupActionData, RepData, irrep_gl2, stabilizer_action_binary_forms
from multifilt.homspaces import _left_kernel_dim, filt_object, grid_labels, multiplicity
from multifilt.linalg import Mat, kernel, rref
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, builtin_variety, custom_variety
from reference_paths import (
    cached_object,
    cached_reference_multiplicity,
    cached_rep,
    cached_trivial_object,
    reference_left_kernel_dim,
    reference_multiplicity,
)


def _assert_chain_matches_reference(a, style):
    triv = cached_trivial_object("GL2", style)
    # the torus is general and bidiagonal from n = 1 on (at n = 0 it is 0)
    assert a.h_action.bidiagonals[0] == (a.rep.dim > 1)
    got = _left_kernel_dim(a, triv)
    assert got == reference_left_kernel_dim(a, triv), (a.rep.label, style)
    return got


def test_chain_matches_the_reference_on_both_forms_grids():
    # the paper's forms table and the wider grid the oracle is checked on
    labels = set(grid_labels("GL2", range(0, 9), range(-6, 7))) | set(grid_labels("GL2", range(0, 17), range(-2, 3)))
    for style in H_STYLES:
        for n, m in sorted(labels):
            got = _assert_chain_matches_reference(cached_object("GL2", (n, m), style), style)
            # lie_only keeps the torus alone, which does not see the parity of m
            assert got == int(n % 2 == 0 and m >= 0 and (m % 2 == 0 or style == H_STYLES[0])), (n, m, style)


def test_chain_matches_the_reference_on_long_forms_cells():
    # (n, 0) and (n, 1) up to the CLI's dimension bound: every n up to 40,
    # then a stride of 16 with both parities; past 40 the even (n, 0) cells,
    # whose chain survives the reflection and whose reference is the
    # costliest (0.26 s at n = 168), are taken at 84 and 168 only
    ns = sorted(set(range(0, 41)) | set(range(48, 169, 16)) | set(range(41, 169, 16)) | {84, 167, 168})
    # built afresh and dropped: kept, their reflections would hold megabytes
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    cells = [((n, m), H_STYLES[1]) for n in ns for m in (0, 1) if n <= 40 or n % 2 or m or n in (84, 168)]
    cells += [((n, 0), H_STYLES[0]) for n in (1, 2, 41, 84, 167, 168)]
    for label, style in cells:
        _assert_chain_matches_reference(filt_object(irrep_gl2(*label), forms, style), style)


def _bidiagonal(rng, dim, lam):
    """Rows of an upper bidiagonal matrix whose diagonal is often lam and
    whose superdiagonal is often zero."""
    diagonal = [rng.choice((lam, lam, 0, 1, -2, Fraction(1, 3))) for _ in range(dim)]
    superdiagonal = [rng.choice((0, 1, -1, 3, Fraction(-1, 2))) for _ in range(dim - 1)] + [0]
    return [[diagonal[i] if j == i else superdiagonal[i] if j == i + 1 else 0 for j in range(dim)] for i in range(dim)]


def _custom_cell(cocharacters, weights, constraints, lambdas):
    table = {"src": [Mat.from_rows(k, len(weights)) for k in constraints], "trivial": [Mat.from_rows([[x]]) for x in lambdas]}
    return custom_variety(2, cocharacters, [[-1, 0]], table), RepData(len(weights), tuple(weights), (), label="src")


def test_chain_matches_the_reference_on_random_bidiagonal_custom_cells(monkeypatch):
    rng = random.Random(2626)
    reductions = []
    monkeypatch.setattr(homspaces, "rref", lambda m: reductions.append(m) or rref(m))
    answers, chains, kinds = [], 0, set()
    for _ in range(300):
        dim = rng.randint(1, 7)
        weights = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(dim)]
        cocharacters = [[rng.randint(-1, 1), rng.randint(-1, 1)] for _ in range(rng.randint(0, 2))]
        constraints, lambdas = [], []
        for kind in rng.sample(("bidiagonal", "bidiagonal", "diagonal", "dense"), rng.randint(1, 3)):
            lam = rng.choice((0, 1, -2, Fraction(1, 2)))
            if kind == "bidiagonal":
                rows = _bidiagonal(rng, dim, lam)
            elif kind == "diagonal":
                rows = [[rng.choice((lam, lam, 1)) if j == i else 0 for j in range(dim)] for i in range(dim)]
            else:
                rows = [[rng.choice((0, 0, 1, -1, lam)) for _ in range(dim)] for _ in range(dim)]
            constraints.append(rows)
            lambdas.append(lam)
        spec, rep = _custom_cell(cocharacters, weights, constraints, lambdas)
        a = homspaces.filt_object(rep, spec)
        triv = homspaces.filt_object(spec.trivial_rep(), spec)
        before = len(reductions)
        got = _left_kernel_dim(a, triv)
        assert got == reference_left_kernel_dim(a, triv) == reference_multiplicity(rep, spec), (cocharacters, weights, constraints, lambdas)
        answers.append(got)
        # the bidiagonal constraint is reduced first only when another
        # general constraint is left to write over its kernel
        free, general = homspaces._left_kernel_entries(a, triv)
        k = next((k for k, bidiagonal in enumerate(a.h_action.bidiagonals) if bidiagonal), None)
        assert len(reductions) - before == int(k is not None and len(general) > 1)
        if len(reductions) == before:
            continue
        chains += 1
        # what the reduction met: a zero after lambda on the diagonal, a
        # zero superdiagonal entry, a coordinate dropped by the flags
        K, lam = a.h_action.intertwiner_constraints[k], lambdas[k]
        kinds |= {"zero diagonal"} if any(K.at(i, i) == lam for i in range(dim)) else set()
        kinds |= {"zero superdiagonal"} if not all(K.at(i, i + 1) for i in range(dim - 1)) else set()
        kinds |= {"dropped"} if len(free) < len(homspaces._free_entries(a.h_action, triv.h_action)[0]) else set()
    assert chains > 100 and kinds == {"zero diagonal", "zero superdiagonal", "dropped"}
    assert {0, 1, 2, 3} <= set(answers)


def test_bidiagonals_are_classified_once_and_never_from_rows_on_request(monkeypatch):
    forms, matrices = builtin_variety(BINARY_QUADRATIC_FORMS), builtin_variety(TWO_BY_TWO_MATRICES)
    # the forms reflection is written on request too: neither classification
    # reads its rows
    monkeypatch.setattr(gl2, "_reflection_row", lambda *args: pytest.fail("a row on request was read to classify it"))
    action = forms.stabilizer_action(cached_rep("GL2", (6, 1)))
    bidiagonals = action.bidiagonals
    assert bidiagonals == (True, False) and action.diagonals[1] is None
    monkeypatch.setattr(gl2, "_upper_bidiagonal", lambda m: pytest.fail("a classified constraint was classified again"))
    assert action.bidiagonals is bidiagonals
    # a matrix cell reads no row to classify, so its rows stay unwritten
    for name in ("_e_f_row", "_f_e_row", "_diagonal_row"):
        monkeypatch.setattr(varieties, name, lambda *args: pytest.fail("a row on request was read to classify it"))
    rep = cached_rep("GL2xGL2", ((3, 1), (2, 0)))
    assert matrices.stabilizer_action(rep).bidiagonals == (False,) * 4
    # a diagonal constraint is never handed over as bidiagonal
    assert GroupActionData(2, (Mat.identity(2),)).bidiagonals == (False,)


def test_matrix_cells_keep_the_general_writer(monkeypatch):
    # as do forms cells in lie_only, whose torus is their one general
    # constraint: nothing is left to write over its kernel
    monkeypatch.setattr(homspaces, "rref", lambda m: pytest.fail("a cell reduced a constraint before the others"))
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    for label in (((2, 1), (2, 1)), ((3, 0), (1, 2))):
        assert multiplicity(cached_rep("GL2xGL2", label), matrices) == int(label[0] == label[1])
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    for label in ((4, 1), (5, 0)):
        assert multiplicity(cached_rep("GL2", label), forms, H_STYLES[0]) == int(label[0] % 2 == 0)


def _torus_kernel_support(a, triv):
    """The coordinates where the left kernel of the torus constraint, over
    the coordinates the flags keep, is nonzero: read off linalg.kernel of
    its equations, written by the reference writer."""
    free, general = homspaces._left_kernel_entries(a, triv)
    null = kernel(Mat.from_sparse_rows(homspaces._constraint_rows(free, general[:1]), len(free)))
    return {free[j][1] for row in null.sparse_rows for j, _ in row}


def test_a_forms_cell_writes_only_the_reflection_rows_at_its_torus_kernel(monkeypatch):
    # the kept trivial object is built before the writer is counted
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    multiplicity(irrep_gl2(0, 0), forms)
    triv = forms._trivial[H_STYLES[1]]
    written = []
    real = gl2._reflection_row
    monkeypatch.setattr(gl2, "_reflection_row", lambda n, m, r: written.append(r) or real(n, m, r))
    emptied = 0
    for n, m in sorted(set(grid_labels("GL2", range(0, 17), range(-3, 4))) | {(84, 0), (167, 0), (168, 1)}):
        expected = cached_reference_multiplicity("GL2", (n, m), H_STYLES[1]) if n <= 16 else int(n % 2 == 0 and m % 2 == 0)
        a = filt_object(irrep_gl2(n, m), forms)
        written.clear()
        assert multiplicity(irrep_gl2(n, m), forms) == expected, (n, m)
        support = _torus_kernel_support(a, triv) if n else set()
        # every row written is read by the product with the kernel basis,
        # once; none at all for odd n, whose torus kernel is empty
        assert sorted(written) == sorted(support), (n, m)
        assert n % 2 == 0 or not written
        emptied += n % 2 == 0 and n > 0 and not support
    # an even n whose flag drops the coordinate its torus kernel needs
    assert emptied
    written.clear()
    # at n = 0 the reflection is the scalar (-1)^m, classified as diagonal
    # from the eigenvalue it carries, with no row written
    for m in range(-3, 4):
        action = stabilizer_action_binary_forms(0, m)
        assert action.diagonals == ((0,), ((-1) ** (m % 2),)) and type(action.diagonals[1][0]) is int
        assert action.bidiagonals == (False, False)
    assert not written
