import random
from collections import Counter

import pytest

from multifilt.gl2 import (
    H_STYLE_LIE_ONLY,
    H_STYLES,
    clebsch_gordan,
    dual,
    external_rep,
    irrep_gl2,
    rep_from_label,
    stabilizer_action_binary_forms,
    weights_of_label,
)
from multifilt.linalg import Mat, kernel, vstack


def test_irrep_examples():
    triv = irrep_gl2(0, 0)
    assert triv.dim == 1 and triv.weights == ((0, 0),)
    std = irrep_gl2(1, 0)
    assert std.dim == 2 and std.weights == ((1, 0), (0, 1))
    tw = irrep_gl2(2, 1)
    assert tw.dim == 3 and tw.weights == ((3, 1), (2, 2), (1, 3))
    with pytest.raises(ValueError):
        irrep_gl2(-1, 0)


def test_irrep_weight_sum():
    for n in range(0, 6):
        for m in range(-3, 4):
            rep = irrep_gl2(n, m)
            assert sum(a + b for a, b in rep.weights) == (n + 1) * (n + 2 * m)


def test_lie_relations():
    for n in range(0, 5):
        for m in (-2, 0, 3):
            e, f, h1, h2 = irrep_gl2(n, m).action_ops
            assert e @ f - f @ e == h1 - h2
            # torus operators are diagonal with the listed weights
            rep = irrep_gl2(n, m)
            for j, (a, b) in enumerate(rep.weights):
                assert h1.at(j, j) == a and h2.at(j, j) == b
            # e and f shift weights by (1, -1) and (-1, 1)
            for j in range(rep.dim):
                for i in range(rep.dim):
                    if e.at(i, j) != 0:
                        assert (rep.weights[i][0] - rep.weights[j][0], rep.weights[i][1] - rep.weights[j][1]) == (1, -1)
                    if f.at(i, j) != 0:
                        assert (rep.weights[i][0] - rep.weights[j][0], rep.weights[i][1] - rep.weights[j][1]) == (-1, 1)


def test_dual():
    assert dual(0, 0) == (0, 0)
    assert dual(1, 0) == (1, -1)
    for n in range(0, 5):
        for m in range(-3, 4):
            assert dual(*dual(n, m)) == (n, m)
    # the dual label carries the negated, re-sorted weight multiset
    assert sorted(weights_of_label(dual(1, 0))) == sorted((-a, -b) for a, b in weights_of_label((1, 0)))


def test_clebsch_gordan_examples():
    assert set(clebsch_gordan((1, 0), (1, 0))) == {(2, 0), (0, 1)}
    assert set(clebsch_gordan((2, 0), (1, 0))) == {(3, 0), (1, 1)}
    assert clebsch_gordan((3, 1), (0, 2)) == ((3, 3),)


def test_clebsch_gordan_weight_conservation():
    rng = random.Random(43)
    for _ in range(30):
        a = (rng.randint(0, 4), rng.randint(-2, 2))
        b = (rng.randint(0, 4), rng.randint(-2, 2))
        tensor = Counter(
            (w1[0] + w2[0], w1[1] + w2[1]) for w1 in weights_of_label(a) for w2 in weights_of_label(b)
        )
        summed = Counter()
        for lab in clebsch_gordan(a, b):
            summed.update(weights_of_label(lab))
        assert summed == tensor


def test_external_rep():
    triv = external_rep((0, 0), (0, 0))
    assert triv.dim == 1 and triv.weights == ((0, 0, 0, 0),)
    prod = external_rep((1, 0), (1, 0))
    assert prod.dim == 4
    assert set(prod.weights) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
    twisted = external_rep((1, 0), (0, 1))
    assert twisted.dim == 2
    assert set(twisted.weights) == {(1, 0, 1, 1), (0, 1, 1, 1)}


MALFORMED_LABELS = [
    ("GL2", (2.7, 0)),
    ("GL2", (2, 0.0)),
    ("GL2", ("2", 0)),
    ("GL2", (True, 0)),
    ("GL2", (-1, 0)),
    ("GL2", (2, 0, 1)),
    ("GL2", None),
    ("GL2", ((1, 0), (1, 0))),
    ("GL2xGL2", (2, 0)),
    ("GL2xGL2", ((1, 0), (-1, 0))),
    ("GL2xGL2", ((1, 0), (1, 0), (1, 0))),
    ("GL2xGL2", ((1, 0, 5), (1, 0))),
]


@pytest.mark.parametrize("group, label", MALFORMED_LABELS)
def test_rep_from_label_rejects_malformed_labels(group, label):
    with pytest.raises(ValueError):
        rep_from_label(group, label)


def test_rep_from_label_reads_lists():
    assert rep_from_label("GL2", [2, 0]).label == (2, 0)
    assert rep_from_label("GL2xGL2", [[1, 0], (2, 1)]).label == ((1, 0), (2, 1))


def _fixed_space_dim(action):
    # the binary-forms constraints come ordered as (torus generator, then
    # group elements): fixed vectors satisfy T v = 0 and R v = v
    rows = None
    for k, c in enumerate(action.intertwiner_constraints):
        block = c if k == 0 else c - Mat.identity(c.rows)
        rows = block if rows is None else vstack(rows, block)
    if rows is None:
        return action.dim
    return kernel(rows).dim()


def test_stabilizer_binary_forms():
    triv = stabilizer_action_binary_forms(0, 0)
    assert all(op == Mat.zero(1, 1) or op == Mat.identity(1) for op in triv.intertwiner_constraints)

    assert _fixed_space_dim(stabilizer_action_binary_forms(2, 0)) == 1
    assert _fixed_space_dim(stabilizer_action_binary_forms(1, 0)) == 0
    # the reflection carries the determinant sign: odd twists lose the fixed line
    assert _fixed_space_dim(stabilizer_action_binary_forms(2, 1)) == 0
    assert _fixed_space_dim(stabilizer_action_binary_forms(2, 1, H_STYLE_LIE_ONLY)) == 1
    assert _fixed_space_dim(stabilizer_action_binary_forms(4, 2)) == 1


def test_stabilizer_binary_forms_rejects_negative_degree():
    for style in H_STYLES:
        for n in (-1, -2, -7):
            with pytest.raises(ValueError, match="must be nonnegative"):
                stabilizer_action_binary_forms(n, 0, style)
