"""The Kronecker-product operators of an external product, each built on
first read, against the eager construction; the on-request sequence that
holds them and the matrix-variety constraint rows against its tuple; the
irreducible operators, written in stored form, against the ones checked
by Mat.from_sparse_rows; and the stored form of the stabilizer
constraints and cocharacter flags that the Hom solver reads."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from multifilt import gl2, homspaces, linalg, varieties
from multifilt.gl2 import H_STYLES, RepData, external_rep, irrep_gl2, rep_from_label
from multifilt.homspaces import filt_object, grid_labels, multiplicity
from multifilt.linalg import Mat, Subspace, kron, vstack
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, builtin_variety, cocharacter_filtration
from multifilt.verify import random_filt_object_pair
from reference_paths import reference_eager_matrix_stabilizer, reference_external_rep, reference_lie_op


def _product_labels():
    yield from grid_labels("GL2xGL2", range(0, 5), range(-2, 4))
    yield from (((n, 1), (n, 1)) for n in range(0, 13))


def _assert_same_as_eager(rep: RepData, ref: RepData) -> None:
    assert isinstance(ref.action_ops, tuple)
    assert tuple(rep.action_ops) == ref.action_ops
    assert rep.action_ops == ref.action_ops and ref.action_ops == rep.action_ops
    assert rep == ref and ref == rep
    assert hash(rep) == hash(ref) and repr(rep) == repr(ref)


def test_deferred_product_matches_eager_reference():
    for label in _product_labels():
        _assert_same_as_eager(rep_from_label("GL2xGL2", label), reference_external_rep(*label))
    trivial = builtin_variety(TWO_BY_TWO_MATRICES).trivial_rep()
    _assert_same_as_eager(trivial, reference_external_rep((0, 0), (0, 0)))


def test_product_ops_are_built_once_on_first_read(monkeypatch):
    calls = []
    monkeypatch.setattr(gl2, "kron", lambda a, b: calls.append((a, b)) or kron(a, b))
    rep = external_rep((3, 1), (2, 0))
    ref = reference_external_rep((3, 1), (2, 0))
    assert len(rep.action_ops) == 8 and not calls
    # what the benchmark's trace reads of a result builds nothing either
    assert hasattr(rep, "action_ops") and rep.dim == 12 and not calls
    # one read builds that operator alone, once, and keeps it
    first = rep.action_ops[5]
    assert len(calls) == 1 and first == ref.action_ops[5]
    assert rep.action_ops[5] is first and rep.action_ops[-3] is first and len(calls) == 1
    # a full read builds the other seven, and keeps the one already built
    assert list(rep.action_ops)[5] is first and len(calls) == 8
    assert rep.action_ops == ref.action_ops and rep == ref
    assert hash(rep) == hash(ref) and repr(rep) == repr(ref)
    assert len(calls) == 8
    assert rep == external_rep((3, 1), (2, 0))
    assert len(calls) == 16  # the second product built its own, once


def test_operator_shapes_are_checked(monkeypatch):
    with pytest.raises(ValueError, match="square of the representation dimension"):
        RepData(2, ((0, 0),) * 2, (Mat.identity(3),))
    with pytest.raises(ValueError, match="square of the representation dimension"):
        RepData(2, ((0, 0),) * 2, [Mat.identity(2), Mat.zero(2, 3)])

    # an external product checks each operator when it is built: a
    # wrong-shaped right factor spoils operators 4..7 alone
    def irrep(n: int, m: int) -> RepData:
        rep = irrep_gl2(n, m)
        if m == 1:
            object.__setattr__(rep, "action_ops", (Mat.identity(n + 2),) * 4)
        return rep

    monkeypatch.setattr(gl2, "irrep_gl2", irrep)
    rep = external_rep((1, 0), (1, 1))
    assert len(rep.action_ops) == 8
    assert rep.action_ops[3] == reference_external_rep((1, 0), (1, 1)).action_ops[3]
    for k in (4, -1):
        with pytest.raises(ValueError, match="square of the representation dimension"):
            rep.action_ops[k]


def test_on_request_behaves_as_its_tuple(monkeypatch):
    writes = Counter()
    for name in ("_e_f_row", "_diagonal_row"):
        real = getattr(varieties, name)
        monkeypatch.setattr(varieties, name, lambda *args, real=real, name=name: writes.update([name]) or real(*args))
    spec = builtin_variety(TWO_BY_TWO_MATRICES)
    label = ((2, 1), (1, 0))
    rep = rep_from_label("GL2xGL2", label)
    ops, constraints = rep.action_ops, spec.stabilizer_action(rep).intertwiner_constraints
    e_f, torus = constraints[0].sparse_rows, constraints[2].sparse_rows
    # each row is written once, when first read
    assert e_f[4] is e_f[4] and torus[4] is torus[-2] and writes == {"_e_f_row": 1, "_diagonal_row": 1}
    refs = reference_eager_matrix_stabilizer(rep)
    for seq, ref in ((ops, reference_external_rep(*label).action_ops), (e_f, refs[0].sparse_rows), (torus, refs[2].sparse_rows)):
        assert type(seq) is gl2._OnRequest and len(seq) == len(ref)
        for k in (0, 3, -1, -len(ref)):
            assert seq[k] == ref[k]
        for k in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                seq[k]
        for cut in (slice(1, 4), slice(None, None, -2), slice(-3, None), slice(5, 2)):
            assert seq[cut] == ref[cut] and type(seq[cut]) is tuple
        assert all(x in seq for x in ref) and Mat.identity(len(ref)) not in seq
        assert [seq.index(x) for x in ref] == [ref.index(x) for x in ref]
        assert [seq.count(x) for x in ref] == [ref.count(x) for x in ref]
        assert list(reversed(seq)) == list(reversed(ref))
        assert seq + ref == ref + seq == ref + ref and seq + () == ref
    assert writes == {"_e_f_row": 6, "_diagonal_row": 6}
    # the constraints stack on either side, as their Mats of rows do
    for k, (m, ref) in enumerate(zip(constraints, refs)):
        assert vstack(m, ref) == vstack(ref, m) == vstack(ref, ref)
        assert m.sparse_rows.eigenvalues == (gl2._diagonal(ref) if k >= 2 else None)


def _assert_sorted_fractions(m: Mat) -> None:
    """m is what Mat.from_sparse_rows makes of its own rows: row tuples,
    increasing columns below the column count and no zero values; and
    every value is a Fraction."""
    assert Mat.from_sparse_rows(m.sparse_rows, m.cols) == m
    assert all(type(x) is Fraction for row in m.sparse_rows for _, x in row)


def test_irreducible_operators_match_the_checked_reference():
    # every factor of both paper grids' labels, of the large cells, and
    # values past the shared table
    labels = [*grid_labels("GL2", range(0, 9), range(-6, 7)), *_product_labels(), (40, -3), ((0, 300), (0, -300)), ((2, -300), (3, 301))]
    factors = {f for label in labels for f in gl2.label_factors(label)}
    assert {(4, 3), (12, 1), (40, -3), (0, -300), (3, 301)} <= factors
    for n, m in sorted(factors):
        ops = irrep_gl2(n, m).action_ops
        assert ops == tuple(reference_lie_op(x, n, m) for x in (gl2._E12, gl2._E21, gl2._E11, gl2._E22)), (n, m)
        for op in ops:
            _assert_sorted_fractions(op)
    # a zero diagonal entry is left out: h1 of (1, -1) is n - i + m, 0 at i = 0
    assert irrep_gl2(1, -1).action_ops[2].sparse_rows == ((), ((1, Fraction(-1)),))


def _assert_stored_form(m: Mat) -> None:
    """As _assert_sorted_fractions, and each integral value is the shared
    Fraction where frac has one.  Rows written directly in this form could
    skip that constructor's per-entry checks."""
    _assert_sorted_fractions(m)
    for row in m.sparse_rows:
        for _, x in row:
            assert x.denominator != 1 or linalg._SMALL.get(x.numerator, x) is x


def _assert_echelon_steps(rep: RepData, spec) -> None:
    for mu in spec.boundary_cocharacters:
        for _, step in cocharacter_filtration(rep, mu).steps:
            assert Subspace.from_sparse_rows(step.ambient_dim, step.sparse_rows) == step


def test_constraints_and_flags_are_in_stored_form():
    specs = {"GL2": builtin_variety(BINARY_QUADRATIC_FORMS), "GL2xGL2": builtin_variety(TWO_BY_TWO_MATRICES)}
    labels = [
        *(("GL2", label) for label in grid_labels("GL2", range(0, 9), range(-6, 7))),
        *(("GL2xGL2", label) for label in _product_labels()),
        # binomials and weight differences past the shared table
        ("GL2", (12, 1)),
        ("GL2", (40, -3)),
        ("GL2xGL2", ((0, 300), (0, -300))),
        ("GL2xGL2", ((2, -300), (3, 301))),
    ]
    reps = [(group, rep_from_label(group, label)) for group, label in labels]
    reps += [(group, spec.trivial_rep()) for group, spec in specs.items()]
    unshared = 0
    for group, rep in reps:
        for style in H_STYLES:
            for m in specs[group].stabilizer_action(rep, style).intertwiner_constraints:
                _assert_stored_form(m)
                unshared += any(abs(x) > 256 for row in m.sparse_rows for _, x in row)
        _assert_echelon_steps(rep, specs[group])
    assert unshared
    # a zero torus eigenvalue leaves its row empty rather than storing a zero
    matrix_torus = specs["GL2xGL2"].stabilizer_action(rep_from_label("GL2xGL2", ((1, 0), (1, 0)))).intertwiner_constraints[2]
    forms_torus = specs["GL2"].stabilizer_action(rep_from_label("GL2", (2, 0))).intertwiner_constraints[0]
    assert matrix_torus.sparse_rows[0] == () and forms_torus.sparse_rows[1] == ((2, -4),)


def test_hom_systems_are_in_stored_form(monkeypatch):
    # the general system, on seeded random-filtered pairs (diagonal
    # constraints, dense flags) and on paper cells against the trivial
    # object and against each other (general constraints, coordinate flags)
    rng = random.Random(73)
    pairs = [random_filt_object_pair(rng, max_dim=4) for _ in range(60)]
    specs = {"GL2": builtin_variety(BINARY_QUADRATIC_FORMS), "GL2xGL2": builtin_variety(TWO_BY_TWO_MATRICES)}
    cells = [("GL2", label) for label in grid_labels("GL2", range(0, 9), range(-6, 7))]
    cells += [("GL2xGL2", label) for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4))]
    for style in H_STYLES:
        objects = {}
        for group, label in cells:
            spec = specs[group]
            a = filt_object(rep_from_label(group, label), spec, style)
            pairs.append((a, filt_object(spec.trivial_rep(), spec, style)))
            objects.setdefault(group, []).append(a)
        pairs += [(a, b) for group in specs for a, b in zip(objects[group][::7], objects[group][3::7])]
    general = 0
    for a, b in pairs:
        if a.rep.dim and b.rep.dim:
            system, free = homspaces._hom_system(a, b)
            _assert_sorted_fractions(system)
            assert system.cols == len(free)
            general += None in a.h_action.diagonals
    assert general

    # the left-kernel system of every paper cell (its values are the
    # constraints' own, less lambda on the diagonal: the forms reflection
    # fixes the trivial line, lambda = 1)
    seen = []
    monkeypatch.setattr(homspaces, "rank", lambda m: seen.append(m) or linalg.rank(m))
    for group, label in cells:
        multiplicity(rep_from_label(group, label), specs[group])
    assert len(seen) == len(cells) and any(m.rows for m in seen)
    for m in seen:
        _assert_sorted_fractions(m)


def test_no_float_or_string_is_stored_raw():
    from multifilt.rees import GradedFreeModule
    from multifilt.varieties import custom_variety

    m = Mat(1, 2, ["1/2", 3])
    assert m == Mat.from_rows([["1/2", 3]])
    assert m.sparse_rows == (((0, Fraction(1, 2)), (1, Fraction(3))),)
    assert all(type(x) is Fraction for row in m.sparse_rows for _, x in row)
    assert m.sparse_rows[0][1][1] is linalg._SMALL[3]
    assert linalg.rank(Mat(1, 1, ["1/2"])) == 1
    ints = Mat(2, 2, [0, 1, -256, 257])
    assert [x for row in ints.sparse_rows for _, x in row] == [1, -256, 257]
    assert ints.sparse_rows[0][0][1] is linalg._ONE and ints.sparse_rows[1][0][1] is linalg._SMALL[-256]
    assert type(ints.sparse_rows[1][1][1]) is Fraction
    with pytest.raises(TypeError):
        Mat(1, 1, [0.5])
    with pytest.raises(TypeError):
        custom_variety(2, [[1.5, 0]], [[-2, 0]])
    with pytest.raises(TypeError):
        custom_variety(2, [[1, 0]], [[-2.0, 0]])
    with pytest.raises(TypeError):
        GradedFreeModule.of(1, [((1,), 1.5)])
    # integers still pass, as ints
    spec = custom_variety(2, [[True, 0]], [[-2, 0]])
    assert spec.boundary_cocharacters == ((1, 0),) and type(spec.boundary_cocharacters[0][0]) is int
    assert GradedFreeModule.of(1, [((1,), 2)]).generators == (((Fraction(1),), 2),)
