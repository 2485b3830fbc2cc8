import random
from fractions import Fraction

import pytest

from multifilt import serialize
from multifilt.gl2 import RepData, external_rep, irrep_gl2, rep_from_label
from multifilt.linalg import Mat
from multifilt.rees import GradedFreeModule
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, builtin_variety, cocharacter_filtration
from multifilt.verify import random_filtered_space


def test_rat_strings():
    assert serialize.rat_to_str(Fraction(3)) == "3"
    assert serialize.rat_to_str(Fraction(-1, 2)) == "-1/2"
    assert serialize.rat_from_json("7/3", "$") == Fraction(7, 3)
    assert serialize.rat_from_json(-4, "$") == Fraction(-4)
    with pytest.raises(serialize.InputError):
        serialize.rat_from_json("1/0", "$")
    with pytest.raises(serialize.InputError):
        serialize.rat_from_json(1.5, "$")


def test_filtered_space_round_trip():
    rng = random.Random(61)
    for _ in range(30):
        fs = random_filtered_space(rng, max_dim=4)
        again = serialize.filtered_space_from_json(serialize.filtered_space_to_json(fs))
        assert again == fs


def test_filtered_space_chunks_join_to_dumps():
    # the flags of both built-in varieties, dense random flags, and the
    # flag of a zero-dimensional representation, which has no step
    flags = []
    for name, labels in (
        (BINARY_QUADRATIC_FORMS, [(0, 0), (2, 0), (5, -1), (12, 3)]),
        (TWO_BY_TWO_MATRICES, [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((3, 1), (2, -1))]),
    ):
        spec = builtin_variety(name)
        for label in labels:
            flags += [cocharacter_filtration(rep_from_label(spec.group, label), mu) for mu in spec.boundary_cocharacters]
    rng = random.Random(2626)
    flags += [random_filtered_space(rng, max_dim=4) for _ in range(30)]
    flags.append(cocharacter_filtration(RepData(0, (), ()), (1,)))
    assert not flags[-1].steps
    for fs in flags:
        chunks = list(serialize.filtered_space_chunks(fs))
        assert "".join(chunks) == serialize.dumps(serialize.filtered_space_to_json(fs))
        assert len(chunks) == len(fs.steps) + 2


def test_filtered_space_errors_carry_paths():
    with pytest.raises(serialize.InputError) as info:
        serialize.filtered_space_from_json({"dim": 2, "steps": [{"index": 0, "basis": [["1", "0", "0"]]}]})
    assert "steps[0]" in str(info.value)
    with pytest.raises(serialize.InputError):
        serialize.filtered_space_from_json({"dim": "two", "steps": []})


def test_graded_module_round_trip():
    mod = GradedFreeModule.of(2, [((Fraction(1), Fraction(1, 2)), -2), ((Fraction(0), Fraction(1)), 1)])
    again = serialize.graded_module_from_json(serialize.graded_module_to_json(mod))
    assert again == mod


def test_rep_round_trips():
    rep = serialize._rep_reader({"group": "GL2", "label": [2, -1]}, "$")[1]()
    assert rep == irrep_gl2(2, -1)
    prod = serialize._rep_reader({"group": "GL2xGL2", "label": [[1, 0], [0, 2]]}, "$")[1]()
    assert prod == external_rep((1, 0), (0, 2))
    generic = serialize._rep_reader({"dim": 2, "weights": [[1, 0], [0, 1]], "ops": [[["0", "1"], ["0", "0"]]]}, "$")[1]()
    assert generic.dim == 2
    assert generic.action_ops[0] == Mat.from_rows([[0, 1], [0, 0]])
    with pytest.raises(serialize.InputError):
        serialize._rep_reader({"group": "SL3", "label": [1, 0]}, "$")[1]()


def test_filt_object_from_json():
    payload = {
        "rep": {"group": "GL2", "label": [0, 0]},
        "h_action": {"dim": 1, "intertwiner_constraints": [[["0"]]]},
        "filtrations": [{"dim": 1, "steps": [{"index": 0, "basis": [["1"]]}]}],
    }
    obj = serialize.filt_object_reader(payload)[1]()
    assert obj.rep.dim == 1
    assert len(obj.filtrations) == 1


def test_custom_variety_from_json():
    payload = {
        "group_rank": 2,
        "cocharacters": [[1, 0]],
        "x_module_weights": [[-2, 0], [-1, -1], [0, -2]],
        "stabilizer_ops": {},
    }
    spec = serialize.custom_variety_from_json(payload)
    assert spec.rank == 2
    assert spec.boundary_cocharacters == ((1, 0),)
    with pytest.raises(serialize.InputError):
        serialize.custom_variety_from_json({"group_rank": 2, "cocharacters": [[1, 0, 0]]})


def test_repeated_step_index_is_rejected_at_its_step():
    full, e1, e2 = [["1", "0"], ["0", "1"]], [["1", "0"]], [["0", "1"]]
    steps = [{"index": 0, "basis": full}, {"index": 1, "basis": e1}, {"index": 1, "basis": e2}]
    with pytest.raises(serialize.InputError) as info:
        serialize.filtered_space_from_json({"dim": 2, "steps": steps})
    assert info.value.path == "$.steps[2].index"
    assert str(info.value) == "$.steps[2].index: step index 1 is repeated"
    # the same index on the same subspace is a repeat too
    with pytest.raises(serialize.InputError, match=r"\$\.a\.steps\[1\]\.index"):
        serialize.filtered_space_from_json({"dim": 2, "steps": [steps[0], steps[0]]}, "$.a")
    # distinct indices still read
    fs = serialize.filtered_space_from_json({"dim": 2, "steps": steps[:2]})
    assert [idx for idx, _ in fs.steps] == [0, 1]


def test_list_readers_keep_their_breadcrumbs():
    objects = {
        "rep": {"dim": 1, "weights": [[0, 0]], "ops": []},
        "h_action": {"dim": 1, "intertwiner_constraints": []},
        "filtrations": [],
    }
    cases = [
        ({**objects, "rep": {"dim": 1, "weights": [[0, "x"]]}}, "$.rep.weights[0]: expected an integer"),
        ({**objects, "rep": {"dim": 1, "weights": [5]}}, "$.rep.weights[0]: expected a list"),
        ({**objects, "rep": {"dim": 1, "weights": [[0, 0]], "ops": [[["1"]], [["x"]]]}}, "$.rep.ops[1][0][0]: bad rational"),
        ({**objects, "h_action": {"dim": 1, "intertwiner_constraints": [[["1"]], 3]}}, "$.h_action.intertwiner_constraints[1]: expected a list"),
    ]
    for payload, message in cases:
        with pytest.raises(serialize.InputError) as info:
            serialize.filt_object_reader(payload)[1]()
        assert str(info.value).startswith(message)
    variety = {"group_rank": 2, "group": "GL2", "cocharacters": [[1, 0]], "x_module_weights": [[-2, 0], [-1, -1], [0, -2]]}
    cases = [
        ({**variety, "cocharacters": [[1, 0], [1, 0.5]]}, "$.cocharacters[1]: expected an integer"),
        ({**variety, "x_module_weights": [[-2, 0], "w"]}, "$.x_module_weights[1]: expected a list"),
        ({**variety, "stabilizer_ops": {"2,0": [[["1"]], [["1", "y"]]]}}, "$.stabilizer_ops['2,0'][1][0][1]: bad rational"),
        ({**variety, "stabilizer_ops": {"2,0": 7}}, "$.stabilizer_ops['2,0']: expected a list"),
    ]
    for payload, message in cases:
        with pytest.raises(serialize.InputError) as info:
            serialize.custom_variety_from_json(payload)
        assert str(info.value).startswith(message)
