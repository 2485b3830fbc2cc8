"""Cross-checks of the weight-structured Hom solver, its once-per-vector
filtration conditions and coordinate-flag filtrations against the plain
constructions in reference_paths."""

import random
from dataclasses import replace
from collections import Counter
from fractions import Fraction

import pytest

from multifilt import gl2, homspaces, linalg, varieties
from multifilt.characters import label_weight_sum
from multifilt.cli import _parse_label
from multifilt.gl2 import (
    H_STYLE_LIE_ONLY,
    H_STYLES,
    GroupActionData,
    RepData,
    external_rep,
    label_dim,
    rep_from_label,
    stabilizer_action_binary_forms,
    weights_of_label,
)
from multifilt.homspaces import FiltObject, filt_object, grid_labels, hom_basis, hom_dim, multiplicity
from multifilt.linalg import Mat, Subspace, vstack
from multifilt.varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    builtin_variety,
    cocharacter_filtration,
    label_key,
)
from multifilt.verify import random_filt_object_pair, random_filtered_space
from reference_paths import (
    cached_object,
    cached_reference_multiplicity,
    cached_rep,
    cached_trivial_object,
    reference_annihilator,
    reference_binary_forms_stabilizer,
    reference_cocharacter_filtration,
    reference_eager_matrix_stabilizer,
    reference_grid_labels,
    reference_hom,
    reference_matrix_variety_stabilizer,
    reference_per_jump_hom_system,
)
from test_stored_form import _assert_echelon_steps, _assert_stored_form, _raising_and_torus


def _diag(*entries):
    return Mat.from_rows([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


def _object(constraints, filtrations=()):
    dim = constraints[0].rows
    return FiltObject(RepData(dim, ((0, 0),) * dim, ()), GroupActionData(dim, tuple(constraints)), tuple(filtrations))


def _assert_matches_reference(a, b):
    assert (hom_dim(a, b), hom_basis(a, b)) == reference_hom(a, b)


@pytest.mark.parametrize("seed", [3, 11, 19, 37, 71])
def test_random_pairs_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(60):
        _assert_matches_reference(*random_filt_object_pair(rng, max_dim=5))


def test_one_sided_diagonal_pairs_do_not_prune():
    upper = Mat.from_rows([[1, 1], [0, 2]])
    lower = Mat.from_rows([[1, 0], [3, 2]])
    cases = [
        (_object([_diag(1, 2)]), _object([upper])),
        (_object([upper]), _object([_diag(2, 1)])),
        (_object([lower]), _object([upper])),
    ]
    for a, b in cases:
        _, free = homspaces._hom_system(a, b)
        assert free == list(range(4))
        _assert_matches_reference(a, b)
    # a genuinely diagonal pair still prunes next to a one-sided one
    a = _object([_diag(1, 2), upper])
    b = _object([_diag(2, 5), _diag(1, 2)])
    _, free = homspaces._hom_system(a, b)
    assert free == [1]
    _assert_matches_reference(a, b)


def test_equations_that_cancel_are_dropped():
    # f J = J f for a Jordan block J: equation (1, 0) reads f[1, 0] - f[1, 0]
    jordan = Mat.from_rows([[1, 1], [0, 1]])
    a = _object([jordan])
    system, free = homspaces._hom_system(a, a)
    assert free == list(range(4))
    assert system.rows == 3 and all(system.sparse_rows)
    _assert_matches_reference(a, a)


def test_fully_pruned_systems_are_zero():
    rng = random.Random(5)
    flag3 = random_filtered_space(rng, dim=3)
    flag2 = random_filtered_space(rng, dim=2)
    cases = [
        (_object([_diag(1, 1, 1)]), _object([_diag(2, 2)])),
        (_object([_diag(0, 1, 2)], [flag3]), _object([_diag(3, 4)], [flag2])),
        (_object([_diag(1, 2), Mat.from_rows([[0, 1], [0, 0]])]), _object([_diag(3, 3), Mat.zero(2, 2)])),
    ]
    for a, b in cases:
        assert homspaces._hom_system(a, b)[1] == []
        assert hom_dim(a, b) == 0 and hom_basis(a, b) == []
        _assert_matches_reference(a, b)


def test_one_solve_per_call_even_when_empty(monkeypatch):
    # the system handed to the solver is the one whose shape gets reported
    seen = []
    real_rank, real_kernel = homspaces.rank, homspaces.kernel
    monkeypatch.setattr(homspaces, "rank", lambda m: seen.append(("rank", m.cols)) or real_rank(m))
    monkeypatch.setattr(homspaces, "kernel", lambda m: seen.append(("kernel", m.cols)) or real_kernel(m))
    a, b = _object([_diag(1, 1)]), _object([_diag(2, 2, 2)])
    assert hom_dim(a, b) == 0 and hom_basis(a, b) == []
    assert seen == [("rank", 0), ("kernel", 0)]


def test_filtration_conditions_need_no_elimination(monkeypatch):
    # the annihilators are read off the target's echelon rows, so hom_dim
    # runs no kernel and hom_basis only the one that solves its system
    calls = []
    real_kernel = linalg.kernel
    counting = lambda m: calls.append(m) or real_kernel(m)
    monkeypatch.setattr(linalg, "kernel", counting)
    monkeypatch.setattr(homspaces, "kernel", counting)
    rng = random.Random(43)
    conditions = 0
    for _ in range(80):
        a, b = random_filt_object_pair(rng, max_dim=5)
        if not (a.rep.dim and b.rep.dim):
            continue
        conditions += any(fb.at(p).dim() < b.rep.dim for fa, fb in zip(a.filtrations, b.filtrations) for p in fa.jumps())
        hom_dim(a, b)
        assert calls == []
        hom_basis(a, b)
        assert len(calls) == 1
        calls.clear()
    assert conditions > 20


def _entry_by_entry_diagonals(m):
    if any(m.at(i, j) for i in range(m.rows) for j in range(m.cols) if i != j):
        return None
    return tuple(m.at(i, i) for i in range(m.rows))


def test_diagonals_read_each_constraint_as_its_entries_do():
    rng = random.Random(16)
    values = (0, 0, 1, -2, 300, Fraction(3, 7), Fraction(-5, 2))
    seen = set()
    for _ in range(300):
        dim = rng.randint(0, 5)
        constraints = []
        for _ in range(rng.randint(0, 3)):
            off = rng.random() < 0.4
            rows = [[rng.choice(values) if i == j or (off and rng.random() < 0.2) else 0 for j in range(dim)] for i in range(dim)]
            constraints.append(Mat.from_rows(rows, dim))
        got = GroupActionData(dim, tuple(constraints)).diagonals
        assert got == tuple(map(_entry_by_entry_diagonals, constraints))
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for eigen in got if eigen for x in eigen)
        seen.update(("zero" if dim == 0 else "none" if e is None else "diagonal") for e in got)
    assert seen == {"zero", "none", "diagonal"}
    assert GroupActionData(0, (Mat.zero(0, 0),)).diagonals == ((),)
    assert GroupActionData(2, (Mat.zero(2, 2),)).diagonals == ((0, 0),)


def test_constraints_are_classified_once_per_group_action_data(monkeypatch):
    # every object is built, and its constraints classified, before the
    # classifier is replaced; the kept trivial objects are built by a first
    # multiplicity call per example and style
    rng = random.Random(1616)
    specs = {"GL2": builtin_variety(BINARY_QUADRATIC_FORMS), "GL2xGL2": builtin_variety(TWO_BY_TWO_MATRICES)}
    cells = [("GL2", label) for label in grid_labels("GL2", range(0, 9), range(-6, 7))]
    cells += [("GL2xGL2", label) for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4))]
    cells += [("GL2xGL2", ((n, 1), (n, 1))) for n in range(0, 13)]
    pairs = [random_filt_object_pair(rng, max_dim=4) for _ in range(60)]
    kept = []
    for style in H_STYLES:
        for group, spec in specs.items():
            multiplicity(rep_from_label(group, (0, 0) if group == "GL2" else ((0, 0), (0, 0))), spec, style)
            kept.append(spec._trivial[style])
            pairs += [(filt_object(cached_rep(group, label), spec, style), kept[-1]) for g, label in cells[::9] if g == group]
    expected_homs = [reference_hom(a, b) for a, b in pairs]
    expected_cells = [cached_reference_multiplicity(group, label, style) for style in H_STYLES for group, label in cells]
    for a, b in pairs:
        a.h_action.diagonals, b.h_action.diagonals

    real_diagonal = gl2._diagonal
    monkeypatch.setattr(gl2, "_diagonal", lambda m: pytest.fail("a classified constraint was classified again"))
    assert [(hom_dim(a, b), hom_basis(a, b)) for a, b in pairs] == expected_homs

    # a cell's own object is new, so its forms torus is classified, once;
    # its forms reflection and matrix constraints are written on request and
    # carry their classification, and the kept trivial object's are never
    # classified
    kept_constraints = [k for triv in kept for k in triv.h_action.intertwiner_constraints]
    calls = []

    def classify(m):
        assert not any(m is k for k in kept_constraints), "the kept trivial object was classified again"
        calls.append(m)
        return real_diagonal(m)

    monkeypatch.setattr(gl2, "_diagonal", classify)
    got = []
    for style in H_STYLES:
        for group, label in cells:
            rep = rep_from_label(group, label)
            before = len(calls)
            got.append(multiplicity(rep, specs[group], style))
            expected_calls = int(group == "GL2")
            assert len(calls) - before == expected_calls
    assert got == expected_cells


def test_a_large_cell_writes_only_the_general_rows_it_keeps(monkeypatch):
    # the torus pruning keeps the n + 1 coordinates (i, i) of ((n,1),(n,1)),
    # so each general constraint writes at most those rows of its 169 at
    # n = 12; the kept trivial object is built before the writers are counted
    spec = builtin_variety(TWO_BY_TWO_MATRICES)
    expected = [multiplicity(rep_from_label("GL2xGL2", ((n, 1), (n, 1))), spec) for n in range(13)]
    writes = Counter()
    real = varieties._e_f_row
    monkeypatch.setattr(varieties, "_e_f_row", lambda n1, n2, r: writes.update([r]) or real(n1, n2, r))
    for n in range(13):
        writes.clear()
        assert multiplicity(rep_from_label("GL2xGL2", ((n, 1), (n, 1))), spec) == expected[n]
        # each row at most once, and only rows (i, i), r = i (n + 2)
        assert set(writes.values()) <= {1} and all(r % (n + 2) == 0 for r in writes), (n, writes)
        assert n == 0 or writes


def _assert_filtration_matches(rep, mu):
    assert cocharacter_filtration(rep, mu) == reference_cocharacter_filtration(rep, mu)


def test_filtrations_match_reference_on_paper_grids():
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    for label in grid_labels("GL2", range(0, 9), range(-6, 7)):
        _assert_filtration_matches(rep_from_label("GL2", label), forms.boundary_cocharacters[0])
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4)):
        _assert_filtration_matches(rep_from_label("GL2xGL2", label), matrices.boundary_cocharacters[0])


def test_filtrations_match_reference_on_large_cells():
    mu = builtin_variety(TWO_BY_TWO_MATRICES).boundary_cocharacters[0]
    for n in range(0, 9):
        _assert_filtration_matches(rep_from_label("GL2xGL2", ((n, 1), (n, 1))), mu)


def test_filtrations_match_reference_on_random_weights():
    rng = random.Random(41)
    for _ in range(300):
        rank_ = rng.randint(1, 4)
        dim = rng.randint(0, 8)
        # a narrow range repeats weights and pairing values often
        weights = tuple(tuple(rng.randint(-2, 2) for _ in range(rank_)) for _ in range(dim))
        mu = tuple(rng.randint(-2, 2) for _ in range(rank_))
        _assert_filtration_matches(RepData(dim, weights, ()), mu)



def _paper_and_large_labels():
    yield from (("GL2", label) for label in grid_labels("GL2", range(0, 9), range(-6, 7)))
    yield from (("GL2xGL2", label) for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4)))
    yield from (("GL2xGL2", ((n, 1), (n, 1))) for n in range(0, 13))


def test_label_reader_agrees_with_built_representations():
    for group, label in _paper_and_large_labels():
        rep = rep_from_label(group, label)
        assert weights_of_label(label) == rep.weights, label
        assert label_dim(label) == rep.dim, label
        assert {sum(w) for w in rep.weights} == {label_weight_sum(label)}, label
        assert _parse_label(label_key(label)) == label


@pytest.mark.parametrize(
    "ranges",
    [
        (range(0, 3), range(-1, 2)),
        (range(0, 0), range(-1, 2)),
        (range(0, 3), range(2, 1)),
        (range(1, 3), range(0, 2), range(0, 1)),
        (range(1, 3), range(0, 2), None, range(-2, -1)),
        (range(0, 2), range(0, 1), range(3, 5), range(4, 6)),
        (range(0, 2), range(0, 1), range(0, 0), range(0, 1)),
    ],
)
def test_grid_labels_match_nested_loops(ranges):
    for group in ("GL2", "GL2xGL2"):
        assert grid_labels(group, *ranges) == reference_grid_labels(group, *ranges)


def _matrix_stabilizer_labels():
    yield from grid_labels("GL2xGL2", range(0, 5), range(-2, 4))
    yield from (((n, 1), (n, 1)) for n in range(0, 13))
    # factors of different degrees and twists, in both orders
    yield from (((3, -1), (7, 2)), ((7, 2), (3, -1)), ((0, 4), (5, 0)), ((9, 1), (0, -3)), ((1, 0), (12, 5)))


def _assert_written_as_eager(action, rep):
    """Each constraint's rows, read one at a time as the Hom solver reads
    them and then whole, are the rows the eager recipe writes, and the
    classification it carries is what _diagonal reads off the eager Mats."""
    eager = _raising_and_torus(reference_eager_matrix_stabilizer(rep))
    for k, e in zip(action.intertwiner_constraints, eager, strict=True):
        assert (k.rows, k.cols, len(k.sparse_rows)) == (e.rows, e.cols, e.rows)
        assert tuple(k.sparse_rows[c] for c in range(k.rows)) == e.sparse_rows
        assert vstack(k, e) == vstack(e, k) and k.transpose() == e.transpose()
    assert action.diagonals == tuple(map(gl2._diagonal, eager))
    assert all(type(x) is int for eigen in action.diagonals[1:] for x in eigen)
    assert action.intertwiner_constraints == eager and eager == action.intertwiner_constraints
    assert hash(action.intertwiner_constraints) == hash(eager) and repr(action.intertwiner_constraints) == repr(eager)


def test_matrix_stabilizer_matches_kron_and_subtract():
    spec = builtin_variety(TWO_BY_TWO_MATRICES)
    # the last two have weight differences past the shared table
    for label in [*_matrix_stabilizer_labels(), ((0, 0), (0, 0)), ((0, 300), (0, -300)), ((2, -300), (3, 301))]:
        rep = rep_from_label("GL2xGL2", label)
        expected = _raising_and_torus(reference_matrix_variety_stabilizer(rep))
        for style in H_STYLES:
            _assert_written_as_eager(spec.stabilizer_action(rep, style), rep)
            assert spec.stabilizer_action(rep, style).intertwiner_constraints == expected, label
    triv = spec.trivial_rep()
    assert spec.stabilizer_action(triv).intertwiner_constraints == _raising_and_torus(reference_matrix_variety_stabilizer(triv))


def test_matrix_stabilizer_needs_a_product_label():
    spec = builtin_variety(TWO_BY_TWO_MATRICES)
    labeled = external_rep((1, 0), (2, 1))
    for label in (None, "trivial", (1, 0), ((1, 0),)):
        # the same eight operators, without a GL2 x GL2 label to read
        unlabeled = RepData(labeled.dim, labeled.weights, labeled.action_ops, label=label)
        with pytest.raises(ValueError, match="labeled GL2 x GL2 irreducible"):
            spec.stabilizer_action(unlabeled)


def test_forms_stabilizer_matches_operator_reference():
    spec = builtin_variety(BINARY_QUADRATIC_FORMS)
    for n in range(41):
        for m in range(-6, 7):
            torus, reflection = reference_binary_forms_stabilizer(n, m)
            assert stabilizer_action_binary_forms(n, m, H_STYLE_LIE_ONLY).intertwiner_constraints == (torus,), (n, m)
            assert stabilizer_action_binary_forms(n, m).intertwiner_constraints == (torus, reflection), (n, m)
    # the variety reads the same constraints off the label
    rep = rep_from_label("GL2", (6, -3))
    assert spec.stabilizer_action(rep).intertwiner_constraints == reference_binary_forms_stabilizer(6, -3)


def _random_product_labels(rng, count):
    """GL2 x GL2 labels with n <= 12 and |m| <= 400; every other one has
    equal factors, whose torus constraints have zero eigenvalues."""
    for k in range(count):
        left = (rng.randint(0, 12), rng.randint(-400, 400))
        yield (left, left) if k % 2 else (left, (rng.randint(0, 12), rng.randint(-400, 400)))


def test_stored_form_builders_match_references_on_random_labels():
    """The constraints and flags written in stored form equal the ones the
    reference paths compute from operators and by elimination, and are in
    stored form, on labels past the paper grids and the shared table."""
    rng = random.Random(20260)
    matrices, forms = builtin_variety(TWO_BY_TWO_MATRICES), builtin_variety(BINARY_QUADRATIC_FORMS)
    zero_rows = 0
    for label in _random_product_labels(rng, 24):
        rep = rep_from_label("GL2xGL2", label)
        expected = _raising_and_torus(reference_matrix_variety_stabilizer(rep))
        for style in H_STYLES:
            action = matrices.stabilizer_action(rep, style)
            _assert_written_as_eager(action, rep)
            got = action.intertwiner_constraints
            assert got == expected, label
            for m in got:
                _assert_stored_form(m)
        zero_rows += got[1].sparse_rows.count(())
        _assert_filtration_matches(rep, matrices.boundary_cocharacters[0])
        _assert_echelon_steps(rep, matrices)
    for _ in range(24):
        n, m = rng.randint(0, 40), rng.randint(-400, 400)
        got = stabilizer_action_binary_forms(n, m).intertwiner_constraints
        assert got == reference_binary_forms_stabilizer(n, m), (n, m)
        assert stabilizer_action_binary_forms(n, m, H_STYLE_LIE_ONLY).intertwiner_constraints == got[:1]
        for c in got:
            _assert_stored_form(c)
        rep = rep_from_label("GL2", (n, m))
        _assert_filtration_matches(rep, forms.boundary_cocharacters[0])
        _assert_echelon_steps(rep, forms)
    assert zero_rows


def _assert_conditions_once_match_per_jump(a, b, monkeypatch):
    """hom_dim and hom_basis equal the full reference, and the system with
    each filtration condition once has no more rows than the per-jump one;
    returns both row counts.  The counts compare the two emissions, so
    both read the reference's annihilator rows: which rows vanish on the
    kept entries, and are dropped, depends on the annihilator's basis."""
    _assert_matches_reference(a, b)
    per_jump, per_jump_free = reference_per_jump_hom_system(a, b)
    with monkeypatch.context() as m:
        m.setattr(Subspace, "annihilator_matrix", reference_annihilator)
        system, free = homspaces._hom_system(a, b)
    assert free == per_jump_free
    assert system.rows <= per_jump.rows
    return system.rows, per_jump.rows


def test_conditions_once_match_per_jump_on_paper_and_large_cells(monkeypatch):
    labels = [
        *(("GL2", label) for label in grid_labels("GL2", range(0, 9), range(-6, 7))),
        *(("GL2xGL2", label) for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4))),
        *(("GL2xGL2", ((n, 1), (n, 1))) for n in (4, 8, 12)),
    ]
    rows = per_jump_rows = 0
    for group, label in labels:
        a, b = cached_object(group, label, H_STYLES[1]), cached_trivial_object(group, H_STYLES[1])
        once, per_jump = _assert_conditions_once_match_per_jump(a, b, monkeypatch)
        rows, per_jump_rows = rows + once, per_jump_rows + per_jump
    # the paper's flags have several steps, so the emission falls in total
    assert rows < per_jump_rows


def _random_flag(rng, dim):
    """A multi-step flag: dense in a random basis, or a coordinate flag."""
    if rng.random() < 0.5:
        return random_filtered_space(rng, lo=-5, hi=5, dim=dim)
    return cocharacter_filtration(RepData(dim, tuple((rng.randint(-2, 2),) for _ in range(dim)), ()), (1,))


def test_conditions_once_match_per_jump_on_random_pairs(monkeypatch):
    rng = random.Random(53)
    for _ in range(200):
        ncons, nfilt = rng.randint(0, 2), rng.randint(1, 3)
        objects = []
        for dim in (rng.randint(1, 8), rng.randint(1, 8)):
            cons = tuple(_diag(*(rng.choice((0, 1, 2)) for _ in range(dim))) for _ in range(ncons))
            filts = tuple(_random_flag(rng, dim) for _ in range(nfilt))
            objects.append(FiltObject(RepData(dim, ((0, 0),) * dim, ()), GroupActionData(dim, cons), filts))
        _assert_conditions_once_match_per_jump(*objects, monkeypatch)


def _with_four_pairs(obj):
    """obj with all four pairs of reference_matrix_variety_stabilizer, the
    lowering pair among them, in place of the recipe's three."""
    return FiltObject(obj.rep, GroupActionData(obj.rep.dim, reference_matrix_variety_stabilizer(obj.rep)), obj.filtrations)


def test_the_lowering_pair_adds_no_condition():
    # a map fixed by the torus and the raising operator of a connected GL2
    # is fixed by the lowering one too, so the recipe's three pairs and the
    # reference's four answer alike: by multiplicity and by the general
    # hom_dim against the trivial object, on the paper grid in both styles
    # and the large cells, and between seeded flagged matrix objects
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    four = replace(matrices, stabilizer=lambda rep, style: GroupActionData(rep.dim, reference_matrix_variety_stabilizer(rep)))
    triv = _with_four_pairs(cached_trivial_object("GL2xGL2", H_STYLES[1]))
    answers = set()
    for label in [*grid_labels("GL2xGL2", range(0, 5), range(-2, 4)), *(((n, 1), (n, 1)) for n in range(13))]:
        rep = cached_rep("GL2xGL2", label)
        got = multiplicity(rep, four)
        assert hom_dim(_with_four_pairs(cached_object("GL2xGL2", label, H_STYLES[1])), triv) == got, label
        for style in H_STYLES:
            assert multiplicity(rep, matrices, style) == got == cached_reference_multiplicity("GL2xGL2", label, style), (label, style)
        answers.add(got)
    assert answers == {0, 1}
    rng = random.Random(2880)
    factors = [(n, m) for n in range(3) for m in range(-1, 2)]
    dims = Counter()

    def flagged(label):
        rep = cached_rep("GL2xGL2", label)
        return FiltObject(rep, matrices.stabilizer_action(rep), tuple(_random_flag(rng, rep.dim) for _ in range(nfilt)))

    for _ in range(150):
        nfilt = rng.randint(0, 2)
        a = flagged((rng.choice(factors), rng.choice(factors)))
        # every other pair is an object against itself, whose Homs hold the identity
        b = a if rng.random() < 0.5 else flagged((rng.choice(factors), rng.choice(factors)))
        got = hom_basis(a, b)
        assert hom_dim(a, b) == len(got) and hom_basis(_with_four_pairs(a), _with_four_pairs(b)) == got, (a.rep.label, b.rep.label)
        dims[len(got)] += 1
    assert {0, 1, 2} <= set(dims) and dims[0] < 100, dims
