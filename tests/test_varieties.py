import pytest

from multifilt.filtration import associated_graded
from multifilt.gl2 import RepData, irrep_gl2, rep_from_label
from multifilt.homspaces import FiltObject, hom_dim, multiplicity
from multifilt.varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    builtin_variety,
    cocharacter_filtration,
    custom_variety,
    pairing,
)


def test_pairing():
    assert pairing((1, 0), (5, 2)) == 5
    assert pairing((0, 0), (7, -3)) == 0
    assert pairing((1, 1, 0, -1), (2, 3, 9, 4)) == 2 + 3 - 4
    with pytest.raises(ValueError):
        pairing((1, 0), (1, 2, 3))


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
    from multifilt.linalg import Mat

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
