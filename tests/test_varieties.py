import random

import pytest
from reference_paths import cached_reference_multiplicity, cached_rep, reference_multiplicity

from multifilt.filtration import associated_graded
from multifilt.gl2 import H_STYLES, RepData, irrep_gl2, rep_from_label
from multifilt.homspaces import FiltObject, filt_object, grid_labels, hom_dim, multiplicity
from multifilt.linalg import Mat
from multifilt.varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    builtin_variety,
    cocharacter_filtration,
    VarietySpec,
    custom_variety,
    pairing,
)


def test_pairing():
    assert pairing((1, 0), (5, 2)) == 5
    assert pairing((0, 0), (7, -3)) == 0
    assert pairing((1, 1, 0, -1), (2, 3, 9, 4)) == 2 + 3 - 4
    with pytest.raises(ValueError):
        pairing((1, 0), (1, 2, 3))


def test_filtration_checks_every_weight_length_like_pairing():
    # RepData lets weights differ in length; a wrong one anywhere, the last
    # included, raises pairing's own error
    weights = ((1, 0), (0, 1), (2, 0, 0))
    rep = RepData(3, weights, ())
    with pytest.raises(ValueError) as got:
        cocharacter_filtration(rep, (1, 0))
    with pytest.raises(ValueError) as expected:
        pairing((1, 0), weights[-1])
    assert str(got.value) == str(expected.value) == "cocharacter length 2 does not match weight length 3"
    with pytest.raises(ValueError, match="weight length 1"):
        cocharacter_filtration(RepData(2, ((1,), (1, 0)), ()), (1, 0))


def test_builtin_specs():
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    assert forms.boundary_cocharacters == ((1, 0),)
    assert len(forms.x_module_weights) == 3
    mats = builtin_variety(TWO_BY_TWO_MATRICES)
    assert mats.boundary_cocharacters == ((1, 1, 0, -1),)
    assert len(mats.x_module_weights) == 4
    with pytest.raises(ValueError):
        builtin_variety("NoSuchVariety")


def test_binary_forms_filtration_chain():
    # for (n, m) the cocharacter acts with weights m+n down to m, so the
    # jumps run from -(m+n) to -m and every graded piece is a line
    for n, m in ((0, 0), (2, 0), (3, 2), (4, -1)):
        fs = cocharacter_filtration(irrep_gl2(n, m), (1, 0))
        assert fs.jumps() == tuple(range(-(m + n), -m + 1))
        assert all(d == 1 for _, d in associated_graded(fs).pieces)


def test_trivial_rep_filtration():
    fs = cocharacter_filtration(irrep_gl2(0, 0), (1, 0))
    assert fs.jumps() == (0,)
    assert associated_graded(fs).pieces == ((0, 1),)


def test_matrix_filtration_pieces():
    mats = builtin_variety(TWO_BY_TWO_MATRICES)
    mu = mats.boundary_cocharacters[0]
    for (n, m), (np_, mp) in (((1, 0), (1, 0)), ((2, 1), (3, -1)), ((0, 2), (2, 0))):
        rep = rep_from_label("GL2xGL2", ((n, m), (np_, mp)))
        pieces = associated_graded(cocharacter_filtration(rep, mu)).pieces
        assert len(pieces) == np_ + 1
        assert all(d == n + 1 for _, d in pieces)
        # jump thresholds follow the arithmetic progression fixed by the labels
        top = n + 2 * m - mp
        assert [idx for idx, _ in pieces] == [-(top - j) for j in range(np_ + 1)]


def test_scaling_relabels_jumps():
    fs1 = cocharacter_filtration(irrep_gl2(3, 2), (1, 0))
    fs2 = cocharacter_filtration(irrep_gl2(3, 2), (2, 0))
    assert fs2.jumps() == tuple(2 * i for i in fs1.jumps())
    assert [s for _, s in fs2.steps] == [s for _, s in fs1.steps]


def test_filtration_depends_on_pairing_only():
    # cocharacters with equal pairings against all weights give equal filtrations
    rep = irrep_gl2(2, 1)
    # weights are (3,1),(2,2),(1,3); (1,-1) and (3,1) pair as a-b and 3a+b
    assert cocharacter_filtration(rep, (1, 1)) == cocharacter_filtration(rep, (1, 1))
    fs = cocharacter_filtration(rep, (1, 1))
    assert fs.jumps() == (-4,)  # all weights pair to 4: a single jump


def test_custom_empty_index_set():
    # with no boundary cocharacters objects degenerate to plain representations
    spec = custom_variety(2, [], [[0, 0]], {})
    rep = RepData(3, ((0, 0),) * 3, (), label=(0, 0))
    assert multiplicity(rep, spec) == 3


def test_custom_stabilizer_table():
    table = {
        "2,0": [Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 2]])],
        "trivial": [Mat.zero(1, 1)],
    }
    spec = custom_variety(2, [[1, 0]], [[-1, 0]], table, group="generic")
    rep = irrep_gl2(2, 0)
    filts = tuple(cocharacter_filtration(rep, mu) for mu in spec.boundary_cocharacters)
    a = FiltObject(rep, spec.stabilizer_action(rep), filts)
    triv = spec.trivial_rep()
    b = FiltObject(triv, spec.stabilizer_action(triv), tuple(cocharacter_filtration(triv, mu) for mu in spec.boundary_cocharacters))
    # maps must kill the eigenvalue-1 and -2 lines and respect the filtration
    assert hom_dim(a, b) == 1

    missing = irrep_gl2(1, 0)
    with pytest.raises(ValueError):
        spec.stabilizer_action(missing)


def _two_line_table(trivial_eigenvalue: int) -> dict:
    return {"2,0": [Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 2]])], "trivial": [Mat.from_rows([[trivial_eigenvalue]])]}


def test_unknown_style_is_rejected_by_every_recipe():
    custom = custom_variety(2, [[1, 0]], [[-1, 0]], _two_line_table(0))
    cases = [
        (builtin_variety(BINARY_QUADRATIC_FORMS), irrep_gl2(2, 0)),
        (builtin_variety(TWO_BY_TWO_MATRICES), rep_from_label("GL2xGL2", ((1, 0), (1, 0)))),
        (custom, irrep_gl2(2, 0)),
    ]
    for spec, rep in cases:
        for style in ("bogus", None, ""):
            with pytest.raises(ValueError, match="unknown constraint style"):
                spec.stabilizer_action(rep, style)
            with pytest.raises(ValueError, match="unknown constraint style"):
                multiplicity(rep, spec, style)
        # a rejected style keeps nothing
        assert not set(spec._trivial) - {None, *H_STYLES}
        assert [multiplicity(rep, spec, style) for style in H_STYLES] == [1, 1]


def test_builtin_variety_returns_one_instance_per_name():
    for name in (BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES):
        assert builtin_variety(name) is builtin_variety(name)
    assert builtin_variety(BINARY_QUADRATIC_FORMS) is not builtin_variety(TWO_BY_TWO_MATRICES)
    with pytest.raises(ValueError):
        builtin_variety(["TwoByTwoMatrices"])


def test_kept_trivial_object_equals_a_fresh_one_and_is_reused():
    cells = {BINARY_QUADRATIC_FORMS: [(2, 0), (3, 1), (0, 0)], TWO_BY_TWO_MATRICES: [((1, 0), (1, 0)), ((2, 1), (0, 0))]}
    for name, labels in cells.items():
        spec = builtin_variety(name)
        assert spec.trivial_rep() is spec.trivial_rep()
        for style in H_STYLES:
            kept = []
            for label in labels:
                multiplicity(rep_from_label(spec.group, label), spec, style)
                kept.append(spec._trivial[style])
            assert all(obj is kept[0] for obj in kept)
            assert kept[0] == filt_object(spec.trivial_rep(), spec, style)
            assert kept[0].rep is spec.trivial_rep()
        # the kept objects stay out of ==, hash and repr
        assert "_trivial" not in repr(spec)
        fresh = VarietySpec(spec.name, spec.group, spec.rank, spec.boundary_cocharacters, spec.x_module_weights, spec.stabilizer)
        assert fresh == spec and hash(fresh) == hash(spec) and fresh._trivial == {}


def test_kept_target_matches_a_fresh_one_on_paper_large_and_random_cells():
    # against the general Hom system to a fresh trivial object: the forms
    # cells n <= 40, |m| <= 8 hold the forms paper grid
    forms, matrices = builtin_variety(BINARY_QUADRATIC_FORMS), builtin_variety(TWO_BY_TWO_MATRICES)
    rng = random.Random(67)
    cells = [(forms, label) for label in grid_labels("GL2", range(0, 41), range(-8, 9))]
    cells += [(matrices, label) for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4))]
    cells += [(matrices, ((n, 1), (n, 1))) for n in range(0, 13)]
    cells += [(forms, (rng.randint(0, 24), rng.randint(-8, 8))) for _ in range(20)]
    cells += [(matrices, tuple((rng.randint(0, 6), rng.randint(-3, 3)) for _ in "ab")) for _ in range(20)]
    for style in H_STYLES:
        for spec, label in cells:
            expected = cached_reference_multiplicity(spec.group, label, style)
            assert multiplicity(cached_rep(spec.group, label), spec, style) == expected, (spec.name, label, style)


def test_equal_custom_specs_keep_their_own_trivial_objects():
    # == ignores the stabilizer table, so a target shared by equal specs
    # would give one of them the other's trivial constraints
    rep = irrep_gl2(2, 0)
    zero = custom_variety(2, [[1, 0]], [[-1, 0]], _two_line_table(0))
    five = custom_variety(2, [[1, 0]], [[-1, 0]], _two_line_table(5))
    assert zero == five and hash(zero) == hash(five)
    for _ in range(2):
        assert (multiplicity(rep, zero), multiplicity(rep, five)) == (1, 0)
        assert (reference_multiplicity(rep, zero), reference_multiplicity(rep, five)) == (1, 0)
    assert zero._trivial is not five._trivial


def test_missing_trivial_constraints_raise_on_every_call():
    table = {"2,0": _two_line_table(0)["2,0"]}
    spec = custom_variety(2, [[1, 0]], [[-1, 0]], table)
    for _ in range(3):
        with pytest.raises(ValueError, match="no stabilizer constraints given for label 'trivial'"):
            multiplicity(irrep_gl2(2, 0), spec)
        assert not set(spec._trivial) & set(H_STYLES)


def test_reimport_releases_the_previous_copy():
    # nothing outside the package may pin its classes: a process that imports
    # it afresh must be able to free the old copy
    import os
    import subprocess
    import sys

    code = (
        "import gc, sys, weakref\n"
        "import multifilt\n"
        "old = weakref.ref(multifilt.Mat)\n"
        "del multifilt\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'multifilt']:\n"
        "    del sys.modules[name]\n"
        "import multifilt\n"
        "gc.collect()\n"
        "sys.exit(0 if old() is None else 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
