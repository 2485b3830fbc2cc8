import random

import pytest

from multifilt.characters import oracle_multiplicity
from multifilt.filtration import is_filtration_morphism
from multifilt.gl2 import GroupActionData, RepData, irrep_gl2, rep_from_label
from multifilt.homspaces import (
    FiltObject,
    filt_object,
    grid_labels,
    hom_basis,
    hom_dim,
    multiplicity,
    multiplicity_table,
)
from multifilt.varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    builtin_variety,
    cocharacter_filtration,
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
    assert hom_dim(zero, zero) == 1
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
