"""The left kernel of a cell whose general constraints include some
written whole and some held on request, read off the whole ones' reduced
equations before the others are written over it, against the path that
writes every general constraint over the kept coordinates and ranks them
all (reference_left_kernel_dim); the cells that keep that joint path; and
the forms reflection, written only at the rows the torus kernel reaches."""

import random
from fractions import Fraction

import pytest

from multifilt import gl2, homspaces
from multifilt.gl2 import H_STYLES, RepData, _OnRequest, irrep_gl2, stabilizer_action_binary_forms
from multifilt.homspaces import _left_kernel_dim, filt_object, grid_labels, multiplicity
from multifilt.linalg import Mat, _mat, kernel, rank, rref
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


def _random_rows(rng, kind, dim, lam):
    """Rows of a bidiagonal, diagonal or dense constraint whose entries are
    often lam."""
    if kind == "bidiagonal":
        return _bidiagonal(rng, dim, lam)
    if kind == "diagonal":
        return [[rng.choice((lam, lam, 1)) if j == i else 0 for j in range(dim)] for i in range(dim)]
    return [[rng.choice((0, 0, 1, -1, lam)) for _ in range(dim)] for _ in range(dim)]


def _random_cell(rng, kinds, held):
    """A custom example and a representation over it with one constraint
    per entry of kinds, against a trivial object whose scalars are often the
    constraints' diagonal entries; the constraints at the indices in held
    keep their rows in an _OnRequest, the rest are written whole."""
    dim = rng.randint(1, 7)
    weights = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(dim)]
    cocharacters = [[rng.randint(-1, 1), rng.randint(-1, 1)] for _ in range(rng.randint(0, 2))]
    constraints, lambdas = [], []
    for k, kind in enumerate(kinds):
        lam = rng.choice((0, 1, -2, Fraction(1, 2)))
        m = Mat.from_rows(_random_rows(rng, kind, dim, lam), dim)
        constraints.append(_mat(dim, dim, _OnRequest(dim, m.sparse_rows.__getitem__)) if k in held else m)
        lambdas.append(lam)
    table = {"src": constraints, "trivial": [Mat.from_rows([[x]]) for x in lambdas]}
    return custom_variety(2, cocharacters, [[-1, 0]], table), RepData(dim, tuple(weights), (), label="src")


def test_chain_matches_the_reference_on_random_bidiagonal_custom_cells(monkeypatch):
    # custom constraints are written whole, so every cell keeps the joint
    # writer, bidiagonal constraints among them, and no cell reduces
    rng = random.Random(2626)
    monkeypatch.setattr(homspaces, "rref", lambda m: pytest.fail("a custom cell reduced a constraint before the others"))
    answers = []
    for _ in range(300):
        kinds = rng.sample(("bidiagonal", "bidiagonal", "diagonal", "dense"), rng.randint(1, 3))
        spec, rep = _random_cell(rng, kinds, ())
        a, triv = filt_object(rep, spec), filt_object(spec.trivial_rep(), spec)
        got = _left_kernel_dim(a, triv)
        assert got == reference_left_kernel_dim(a, triv) == reference_multiplicity(rep, spec), (rep.dim, kinds)
        answers.append(got)
    assert {0, 1, 2, 3} <= set(answers)


def test_whole_constraints_are_solved_first_only_beside_constraints_on_request(monkeypatch):
    rng = random.Random(2828)
    reductions, ranks = [], []
    monkeypatch.setattr(homspaces, "rref", lambda m: reductions.append(m) or rref(m))
    monkeypatch.setattr(homspaces, "rank", lambda m: ranks.append(m.cols) or rank(m))
    answers, chains, met = [], 0, set()
    for _ in range(300):
        kinds = rng.sample(("bidiagonal", "bidiagonal", "diagonal", "dense", "dense"), rng.randint(1, 3))
        held = set(rng.sample(range(len(kinds)), rng.randint(0, len(kinds))))
        spec, rep = _random_cell(rng, kinds, held)
        a, triv = filt_object(rep, spec), filt_object(spec.trivial_rep(), spec)
        reductions.clear(), ranks.clear()
        got = _left_kernel_dim(a, triv)
        # one rank call, on a system with no columns when the kernel is empty
        (columns,) = ranks
        free, general = homspaces._left_kernel_entries(a, triv)
        assert got == reference_left_kernel_dim(a, triv) == reference_multiplicity(rep, spec), (rep.dim, kinds, held)
        answers.append(got)
        # the whole constraints are reduced, once, only when general
        # constraints of both kinds are left
        on_request = [type(ka.sparse_rows) is _OnRequest for ka, _ in general]
        assert len(reductions) == int(True in on_request and False in on_request)
        if not reductions:
            continue
        chains += 1
        # what the reduction met: dense and bidiagonal constraints of both
        # kinds, a zero after lambda on a diagonal, a coordinate dropped by
        # the flags, and a whole constraint whose left kernel is empty
        for (ka, kb), held_rows in zip(general, on_request):
            kind = "bidiagonal" if all(0 <= j - i <= 1 for i, row in enumerate(ka.sparse_rows) for j, _ in row) else "dense"
            met.add((kind, held_rows))
            met |= {"zero after lambda"} if any(ka.at(i, i) == kb.at(0, 0) for i in range(ka.rows)) else set()
        met |= {"dropped"} if len(free) < len(homspaces._free_entries(a.h_action, triv.h_action)[0]) else set()
        met |= {"empty kernel"} if columns == 0 else set()
    assert chains > 50
    assert met == {*((kind, held) for kind in ("bidiagonal", "dense") for held in (True, False)), "zero after lambda", "dropped", "empty kernel"}
    assert {0, 1, 2} <= set(answers)


def test_matrix_cells_keep_the_general_writer(monkeypatch):
    # a matrix cell's one general constraint, the raising pair, is held on
    # request, and a forms cell in lie_only keeps its torus alone, written
    # whole: neither has both kinds, so nothing is written over a kernel
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
    assert not written
