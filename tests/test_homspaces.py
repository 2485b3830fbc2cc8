import random
from fractions import Fraction

import pytest
from reference_paths import reference_multiplicity

from multifilt import homspaces, linalg
from multifilt.characters import oracle_multiplicity
from multifilt.filtration import is_filtration_morphism
from multifilt.gl2 import H_STYLES, GroupActionData, RepData, irrep_gl2, rep_from_label
from multifilt.homspaces import (
    FiltObject,
    filt_object,
    grid_labels,
    hom_basis,
    hom_dim,
    multiplicity,
    multiplicity_table,
)
from multifilt.linalg import Mat
from multifilt.varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    VarietySpec,
    builtin_variety,
    cocharacter_filtration,
    custom_variety,
)
from multifilt.verify import random_filt_object_pair


def _trivial_object():
    rep = irrep_gl2(0, 0)
    return FiltObject(rep, GroupActionData(1, rep.action_ops), (cocharacter_filtration(rep, (1, 0)),))


def test_trivial_self_hom():
    t = _trivial_object()
    assert hom_dim(t, t) == 1


def test_schur_on_plain_irreducibles():
    # no filtrations: endomorphisms of an irreducible are the scalars
    for label in ((0, 0), (1, 0), (2, 1), (3, -2)):
        rep = irrep_gl2(*label)
        obj = FiltObject(rep, GroupActionData(rep.dim, rep.action_ops), ())
        assert hom_dim(obj, obj) == 1


def test_binary_forms_hom_dim_example():
    spec = builtin_variety(BINARY_QUADRATIC_FORMS)
    a = filt_object(irrep_gl2(2, 2), spec)
    b = filt_object(spec.trivial_rep(), spec)
    assert hom_dim(a, b) == 1
    assert oracle_multiplicity(spec, (2, 2), 10) == 1


def test_zero_dimensional_conventions():
    zero = FiltObject(RepData(0, (), ()), GroupActionData(0, ()), ())
    one = FiltObject(RepData(1, ((0, 0),), ()), GroupActionData(1, ()), ())
    # the only map 0 -> 0 is the zero map: Hom(0, 0) = 0, as its basis says
    assert hom_dim(zero, zero) == 0
    assert len(hom_basis(zero, zero)) == hom_dim(zero, zero)
    assert hom_dim(zero, one) == 0
    assert hom_dim(one, zero) == 0


def test_shape_mismatch():
    a = FiltObject(RepData(1, ((0, 0),), ()), GroupActionData(1, ()), ())
    b = _trivial_object()
    with pytest.raises(ValueError):
        hom_dim(a, b)


def test_multiplicity_binary_forms_spot_checks():
    spec = builtin_variety(BINARY_QUADRATIC_FORMS)
    values = {
        (0, 0): 1,
        (2, 0): 1,
        (2, 2): 1,
        (4, 0): 1,
        (2, 1): 0,
        (1, 0): 0,
        (2, -2): 0,
        (3, 2): 0,
    }
    for label, expected in values.items():
        assert multiplicity(rep_from_label("GL2", label), spec) == expected


def test_multiplicity_matrices_spot_checks():
    spec = builtin_variety(TWO_BY_TWO_MATRICES)
    values = {
        ((0, 0), (0, 0)): 1,
        ((1, 0), (1, 0)): 1,
        ((2, 3), (2, 3)): 1,
        ((1, -1), (1, -1)): 0,
        ((1, 0), (1, 1)): 0,
        ((2, 0), (1, 0)): 0,
    }
    for label, expected in values.items():
        assert multiplicity(rep_from_label("GL2xGL2", label), spec) == expected


def test_multiplicity_table_ordering():
    spec = builtin_variety(BINARY_QUADRATIC_FORMS)
    rows = multiplicity_table(spec, grid_labels("GL2", range(0, 3), range(-1, 2)))
    assert [label for label, _ in rows] == sorted(label for label, _ in rows)
    assert dict(rows)[(2, 0)] == 1
    assert multiplicity_table(spec, []) == []


def _random_objects(rng, count, max_dim=3):
    # shape-compatible objects: equal constraint and filtration counts
    from multifilt.linalg import Mat
    from multifilt.verify import random_filtered_space

    ncons = rng.randint(1, 2)
    nfilt = rng.randint(0, 1)
    out = []
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        cons = tuple(
            Mat.from_rows([[rng.choice((0, 1, 2)) if i == j else 0 for j in range(dim)] for i in range(dim)])
            for _ in range(ncons)
        )
        filts = tuple(random_filtered_space(rng, lo=-5, hi=5, dim=dim) for _ in range(nfilt))
        out.append(FiltObject(RepData(dim, ((0, 0),) * dim, ()), GroupActionData(dim, cons), filts))
    return out


def test_hom_basis_composition_closure():
    rng = random.Random(53)
    for _ in range(30):
        a, b, c = _random_objects(rng, 3)
        for f in hom_basis(a, b)[:3]:
            for g in hom_basis(b, c)[:3]:
                h = g @ f
                for ka, kc in zip(a.h_action.intertwiner_constraints, c.h_action.intertwiner_constraints):
                    assert h @ ka == kc @ h
                for fa, fc in zip(a.filtrations, c.filtrations):
                    assert is_filtration_morphism(h, fa, fc)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_large_matrix_cells_have_only_scalar_endomorphisms(n):
    # the general Hom system of a cell with itself (3562 x 1469 at n = 12)
    # solves to the identity alone, as the left kernel's multiplicity 1 and
    # the cell's irreducibility suggest; a regression test, not a proven claim
    spec = builtin_variety(TWO_BY_TWO_MATRICES)
    a = filt_object(rep_from_label("GL2xGL2", ((n, 1), (n, 1))), spec)
    assert hom_basis(a, a) == [Mat.identity(a.rep.dim)]


def test_intertwiner_condition_on_basis():
    rng = random.Random(59)
    for _ in range(25):
        a, b = random_filt_object_pair(rng, max_dim=4)
        for f in hom_basis(a, b)[:3]:
            for ka, kb in zip(a.h_action.intertwiner_constraints, b.h_action.intertwiner_constraints):
                assert f @ ka == kb @ f
            for fa, fb in zip(a.filtrations, b.filtrations):
                assert is_filtration_morphism(f, fa, fb)


def test_solver_oracle_and_closed_form_agree_on_wide_grids():
    # forms (n, m), n <= 16, m in -2..2: 1 iff n and m are even and m >= 0;
    # matrices ((n, m), (n', m')), n, n' <= 8, m, m' in -1..1: 1 iff the two
    # factors are equal and m >= 0
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    cells = [(forms, (n, m), int(n % 2 == 0 and m % 2 == 0 and m >= 0)) for n, m in grid_labels("GL2", range(17), range(-2, 3))]
    cells += [(matrices, (a, b), int(a == b and a[1] >= 0)) for a, b in grid_labels("GL2xGL2", range(9), range(-1, 2))]
    assert len(cells) == 85 + 729
    for spec, label, expected in cells:
        hom = multiplicity(rep_from_label(spec.group, label), spec)
        assert hom == oracle_multiplicity(spec, label) == expected, (spec.name, label)


# the swap has no diagonal entry, so f (swap - lambda) needs -lambda inserted
SWAP = [[0, 1], [1, 0]]


def _custom_cell(cocharacters, weights, constraints, lambdas):
    """A custom example and its rep "src": constraints on the rep, and the
    trivial rep's scalars lambdas."""
    table = {"src": [Mat.from_rows(k, len(weights)) for k in constraints], "trivial": [Mat.from_rows([[x]]) for x in lambdas]}
    return custom_variety(2, cocharacters, [[-1, 0]], table), RepData(len(weights), tuple(weights), (), label="src")


def test_left_kernel_on_custom_scalars_flags_and_zero_reps():
    flat = [(0, 0), (0, 0)]
    cases = [
        # f swap = lambda f: f0 = f1 for lambda 1, f0 = -f1 for -1, only 0 otherwise
        (([], flat, [SWAP], [1]), 1),
        (([], flat, [SWAP], [-1]), 1),
        (([], flat, [SWAP], [2]), 0),
        (([], flat, [SWAP], [0]), 0),
        (([], flat, [[[0, 1], ["1/4", 0]]], ["1/2"]), 1),
        # a diagonal constraint keeps f_c only where its entry is lambda
        (([], flat, [SWAP, [[3, 0], [0, 3]]], [1, 3]), 1),
        (([], flat, [SWAP, [[3, 0], [0, 5]]], [1, 3]), 0),
        (([], flat, [[[3, 0], [0, 5]], [[3, 0], [0, 5]]], [5, 5]), 1),
        # the target flag is the line at levels <= 0: weight-0 coordinates
        # stay (F(1) is zero), a coordinate at level 1 goes
        (([[1, 0]], flat, [SWAP], [1]), 1),
        (([[1, 0]], [(0, 0), (-1, 0)], [SWAP], [1]), 0),
        (([[1, 0]], [(0, 0), (1, 0)], [SWAP], [1]), 1),
        # two boundary cocharacters: each prunes its own step
        (([[1, 0]], [(0, 0), (0, 0), (0, -1)], [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], [1]), 2),
        (([[1, 0], [0, 1]], [(0, 0), (0, 0), (0, -1)], [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], [1]), 1),
        (([[1, 0], [0, 1]], [(0, 0), (0, -1), (0, 0)], [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], [1]), 1),
        # no constraints, no flags: every coordinate is a map to the line
        (([], [(0, 0)] * 3, [], []), 3),
        # a zero-dimensional rep has only the zero map
        (([], [], [[]], [1]), 0),
        (([[1, 0], [0, 1]], [], [[], []], [0, 2]), 0),
    ]
    for args, expected in cases:
        spec, rep = _custom_cell(*args)
        assert (multiplicity(rep, spec), reference_multiplicity(rep, spec)) == (expected, expected), args


def test_left_kernel_matches_the_general_system_on_random_custom_cells():
    # K = lambda + A with A zero on the rows of a chosen set S: every e_c,
    # c in S, is a left eigenvector, so answers above 0 are common
    rng = random.Random(79)
    answers = []
    for _ in range(150):
        dim = rng.randint(0, 5)
        weights = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(dim)]
        cocharacters = [[rng.randint(-1, 1), rng.randint(-1, 1)] for _ in range(rng.randint(0, 2))]
        fixed = {c for c in range(dim) if rng.random() < 0.6}
        lambdas = [rng.choice((0, 1, -2, Fraction(1, 2))) for _ in range(rng.randint(0, 3))]
        constraints = []
        for lam in lambdas:
            if rng.random() < 0.3:
                rows = [[(lam if c in fixed else rng.choice((lam, 0, 1))) if j == c else 0 for j in range(dim)] for c in range(dim)]
            else:
                rows = [
                    [(lam if j == c else 0) if c in fixed else rng.choice((0, 0, 1, -1, -lam, lam)) for j in range(dim)]
                    for c in range(dim)
                ]
            constraints.append(rows)
        spec, rep = _custom_cell(cocharacters, weights, constraints, lambdas)
        got = multiplicity(rep, spec)
        assert got == reference_multiplicity(rep, spec), (cocharacters, weights, constraints, lambdas)
        answers.append(got)
    assert {0, 1, 2} <= set(answers)


def test_left_kernel_keeps_the_shape_error():
    spec, rep = _custom_cell([], [(0, 0), (0, 0)], [SWAP, SWAP], [1])
    with pytest.raises(ValueError, match="different numbers of equivariance constraints"):
        multiplicity(rep, spec)
    with pytest.raises(ValueError, match="different numbers of equivariance constraints"):
        reference_multiplicity(rep, spec)


def test_multiplicity_makes_one_rank_call_and_no_general_system(monkeypatch):
    seen = []
    monkeypatch.setattr(homspaces, "rank", lambda m: seen.append(m) or linalg.rank(m))
    monkeypatch.setattr(homspaces, "_hom_system", lambda a, b: pytest.fail("multiplicity assembled the general system"))
    forms, matrices = builtin_variety(BINARY_QUADRATIC_FORMS), builtin_variety(TWO_BY_TWO_MATRICES)
    cells = [(forms, rep_from_label("GL2", label)) for label in ((0, 0), (2, 0), (3, 1), (12, 2))]
    # ((1, 0), (1, 1)): the torus leaves no coordinate
    cells += [(matrices, rep_from_label("GL2xGL2", label)) for label in (((1, 0), (1, 1)), ((1, 0), (1, 0)), ((4, 1), (4, 1)))]
    cells += [_custom_cell([[1, 0]], [], [[]], [1]), _custom_cell([], [(0, 0)] * 2, [SWAP], [1])]
    for spec, rep in cells:
        seen.clear()
        multiplicity(rep, spec)
        assert len(seen) == 1, (spec.name, rep.label)
        assert seen[0].cols <= rep.dim
    seen.clear()
    multiplicity(rep_from_label("GL2xGL2", ((1, 0), (1, 1))), matrices)
    assert (seen[0].rows, seen[0].cols) == (0, 0)


def _recipe_must_not_run(rep, style):
    pytest.fail("a stabilizer recipe ran")


def test_multiplicity_keeps_the_error_order_of_the_cell_object():
    # each bad input raises what building the cell's object and then the
    # trivial one raises, in that order, as the general path does
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    silent = VarietySpec("Silent", "generic", 2, ((1, 0),), ((-1, 0),), _recipe_must_not_run)
    short = RepData(2, ((0, 0, 0, 0), (0, 0)), (), label=((0, 0), (1, 0)))
    table = custom_variety(2, [[1, 0]], [[-1, 0]], {"src": [Mat.identity(2)], "trivial": [Mat.identity(1)]})
    # constraints one dimension too large for the cell, right for the target
    oversized = VarietySpec(
        "Oversized", "generic", 2, ((1, 0),), ((-1, 0),), lambda rep, style: GroupActionData(rep.dim + (rep.dim > 1), ())
    )
    no_trivial = custom_variety(2, [[1, 0]], [[-1, 0]], {"src": [Mat.identity(2)]})
    two_mu = custom_variety(2, [[1, 0], [0, 1]], [[-1, 0]], {})
    cases = [
        # a weight of the wrong length comes first, even under an unknown style
        ((short, matrices, "bogus"), "cocharacter length 4 does not match weight length 2"),
        ((RepData(2, ((0, 0), (0,)), (), label="src"), two_mu, "bogus"), "cocharacter length 2 does not match weight length 1"),
        ((RepData(1, ((0, 0),), (), label="src"), silent, "bogus"), "unknown constraint style 'bogus'"),
        ((RepData(1, ((0, 0),), (), label="src"), silent, None), "unknown constraint style None"),
        # then the recipe's own errors, for the cell and then for the target
        ((RepData(2, ((0, 0),) * 2, (), label="other"), table, H_STYLES[0]), "no stabilizer constraints given for label 'other'"),
        ((RepData(1, ((0, 0, 0, 0),), ()), matrices, H_STYLES[0]), "matrix-variety stabilizer needs a labeled GL2 x GL2 irreducible"),
        ((RepData(2, ((0, 0),) * 2, (), label="src"), no_trivial, H_STYLES[1]), "no stabilizer constraints given for label 'trivial'"),
        # then the dimension and shape checks
        ((RepData(2, ((0, 0),) * 2, (), label="src"), oversized, H_STYLES[1]), "constraint dimension does not match the representation"),
        ((*reversed(_custom_cell([], [(0, 0)] * 2, [SWAP, SWAP], [1])), H_STYLES[1]), "different numbers of equivariance constraints"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message) as got:
            multiplicity(*args)
        with pytest.raises(ValueError) as reference:
            reference_multiplicity(*args)
        assert (type(got.value), str(got.value)) == (type(reference.value), str(reference.value)), args
