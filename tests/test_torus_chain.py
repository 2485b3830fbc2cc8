"""The left kernel of a cell whose general constraint is upper bidiagonal,
solved as a chain, against the path that writes every general constraint
over the kept coordinates and ranks them all (reference_left_kernel_dim);
and the classification that finds such constraints."""

import random
from fractions import Fraction

import pytest

from multifilt import gl2, homspaces, varieties
from multifilt.gl2 import H_STYLES, GroupActionData, RepData, irrep_gl2
from multifilt.homspaces import _left_kernel_dim, filt_object, grid_labels, multiplicity
from multifilt.linalg import Mat, rank
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, builtin_variety, custom_variety
from reference_paths import (
    cached_object,
    cached_rep,
    cached_trivial_object,
    reference_left_kernel_dim,
    reference_multiplicity,
)


def _assert_chain_matches_reference(a, style):
    triv = cached_trivial_object("GL2", style)
    # the torus is general and bidiagonal from n = 1 on (at n = 0 it is 0)
    assert (a.h_action.bidiagonals[0] is not None) == (a.rep.dim > 1)
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


def test_chain_matches_the_reference_on_random_bidiagonal_custom_cells():
    rng = random.Random(2626)
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
        got = _left_kernel_dim(a, triv)
        assert got == reference_left_kernel_dim(a, triv) == reference_multiplicity(rep, spec), (cocharacters, weights, constraints, lambdas)
        answers.append(got)
        k = next((k for k, bands in enumerate(a.h_action.bidiagonals) if bands), None)
        if k is None:
            continue
        chains += 1
        # what the chain met: a zero after lambda on the diagonal, a zero
        # superdiagonal entry, a coordinate dropped by the flags
        (diagonal, superdiagonal), lam = a.h_action.bidiagonals[k], lambdas[k]
        kinds |= {"zero diagonal"} if lam in diagonal else set()
        kinds |= {"zero superdiagonal"} if not all(superdiagonal[:-1]) else set()
        free, _ = homspaces._left_kernel_entries(a, triv)
        kinds |= {"dropped"} if len(free) < len(homspaces._free_entries(a.h_action, triv.h_action)[0]) else set()
        _assert_chain_basis_solves(a, triv, k)
    assert chains > 100 and kinds == {"zero diagonal", "zero superdiagonal", "dropped"}
    assert {0, 1, 2, 3} <= set(answers)


def _assert_chain_basis_solves(a, triv, k):
    """Each chain vector vanishes off the kept coordinates and solves
    f K = lambda f for constraint k."""
    free, _ = homspaces._left_kernel_entries(a, triv)
    kept = [c for _, c in free]
    K = a.h_action.intertwiner_constraints[k]
    lam = triv.h_action.intertwiner_constraints[k].at(0, 0)
    basis = homspaces._chain_basis(kept, *a.h_action.bidiagonals[k], lam)
    for f in basis:
        assert {c for c, _ in f} <= set(kept)
        row = Mat.from_sparse_rows([f], a.rep.dim)
        assert row.sparse_rows == (f,) and row @ K == row.scale(lam)
    # as many as the left kernel of K - lambda over the kept coordinates has
    # dimensions: the rows of K - lambda there, ranked
    shifted = [[K.at(c, j) - (lam if j == c else 0) for j in range(a.rep.dim)] for c in kept]
    assert len(basis) == len(kept) - rank(Mat.from_rows(shifted, a.rep.dim))


def test_bidiagonals_are_classified_once_and_never_from_rows_on_request(monkeypatch):
    forms, matrices = builtin_variety(BINARY_QUADRATIC_FORMS), builtin_variety(TWO_BY_TWO_MATRICES)
    action = forms.stabilizer_action(cached_rep("GL2", (6, 1)))
    bands = action.bidiagonals
    assert bands[1] is None and bands[0] == (tuple(Fraction(6 - 2 * i) for i in range(7)), tuple(Fraction(-2 * (i + 1)) for i in range(6)) + (0,))
    monkeypatch.setattr(gl2, "_bands", lambda m: pytest.fail("a classified constraint was classified again"))
    assert action.bidiagonals is bands
    # a matrix cell reads no row to classify, so its rows stay unwritten
    for name in ("_e_f_row", "_f_e_row", "_diagonal_row"):
        monkeypatch.setattr(varieties, name, lambda *args: pytest.fail("a row on request was read to classify it"))
    rep = cached_rep("GL2xGL2", ((3, 1), (2, 0)))
    assert matrices.stabilizer_action(rep).bidiagonals == (None,) * 4
    # a diagonal constraint is never handed over as bidiagonal
    assert GroupActionData(2, (Mat.identity(2),)).bidiagonals == (None,)


def test_matrix_cells_keep_the_general_writer(monkeypatch):
    calls = []
    monkeypatch.setattr(homspaces, "_chain_basis", lambda *args: calls.append(args) or pytest.fail("a matrix cell took the chain"))
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    for label in (((2, 1), (2, 1)), ((3, 0), (1, 2))):
        assert multiplicity(cached_rep("GL2xGL2", label), matrices) == int(label[0] == label[1])
    assert not calls
