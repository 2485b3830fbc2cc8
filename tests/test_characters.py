import random
from math import comb

import pytest

from multifilt.characters import (
    NegativeMultiplicity,
    NotDominant,
    character_product,
    coordinate_ring_character,
    decompose,
    oracle_multiplicity,
    sym_power_weights,
    weight_multiset,
)
from multifilt.gl2 import weights_of_label
from multifilt.varieties import BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES, builtin_variety, custom_variety
from reference_paths import reference_sym_power_weights


def test_sym_power_degree_zero():
    w = weight_multiset(weights_of_label((3, -1)))
    assert sym_power_weights(w, 0) == {(0, 0): 1}


def test_sym_power_square_of_standard():
    w = weight_multiset(weights_of_label((1, 0)))
    assert sym_power_weights(w, 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_sym_power_count_stars_and_bars():
    rng = random.Random(47)
    for _ in range(20):
        dim = rng.randint(1, 4)
        d = rng.randint(0, 4)
        w = weight_multiset([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)])
        total = sum(sym_power_weights(w, d).values())
        assert total == comb(dim + d - 1, d)


def test_sym_power_rejects_multiplicities_below_one():
    for count in (0, -1):
        for d in (0, 3):
            with pytest.raises(ValueError, match="multiplicities must be at least 1"):
                sym_power_weights({(1, 0): 2, (0, 1): count}, d)


@pytest.mark.parametrize("name", [BINARY_QUADRATIC_FORMS, TWO_BY_TWO_MATRICES])
def test_sym_power_recurrence_matches_convolution_on_builtins(name):
    dual = weight_multiset(tuple(-c for c in w) for w in builtin_variety(name).x_module_weights)
    for d in range(41):
        assert sym_power_weights(dual, d) == reference_sym_power_weights(dual, d), d


def test_sym_power_recurrence_matches_convolution_on_random_multisets():
    rng = random.Random(53)
    for _ in range(200):
        rank = rng.choice((2, 4))
        w = {tuple(rng.randint(-2, 2) for _ in range(rank)): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
        d = rng.randint(0, 40)
        assert sym_power_weights(w, d) == reference_sym_power_weights(w, d), (w, d)


def test_decompose_irreducible():
    w = weight_multiset(weights_of_label((2, 1)))
    assert decompose(w) == {(2, 1): 1}


def test_decompose_tensor_square():
    w = weight_multiset(weights_of_label((1, 0)))
    assert decompose(character_product(w, w)) == {(2, 0): 1, (0, 1): 1}


def test_decompose_product_weights():
    w = weight_multiset(weights_of_label(((1, 0), (2, -1))))
    assert decompose(w) == {((1, 0), (2, -1)): 1}


def test_decompose_symmetric_powers_of_quadrics():
    # degree-d polynomials on the dual of the quadrics module decompose with
    # one summand (2d - 4i, 2i) for each i up to d/2
    w = weight_multiset(weights_of_label((2, 0)))
    for d in range(0, 6):
        expected = {(2 * d - 4 * i, 2 * i): 1 for i in range(d // 2 + 1)}
        assert decompose(sym_power_weights(w, d)) == expected


def test_decompose_errors():
    with pytest.raises(NegativeMultiplicity):
        decompose({(1, 0): 1})
    with pytest.raises(NotDominant):
        decompose({(0, 1): 1})
    with pytest.raises(NegativeMultiplicity):
        decompose({(1, 0): -1, (0, 1): 1})


def test_coordinate_ring_character_degree_one():
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    assert coordinate_ring_character(forms, 1) == weight_multiset(weights_of_label((2, 0)))


def test_coordinate_ring_of_the_zero_module_is_the_constants():
    # degree 0 sits at the zero weight of the torus rank, not the empty weight
    for rank in (2, 4):
        zero = custom_variety(rank, [], [])
        assert coordinate_ring_character(zero, 0) == {(0,) * rank: 1}
        assert [coordinate_ring_character(zero, d) for d in (1, 2)] == [{}, {}]


def test_oracle_binary_forms():
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    assert oracle_multiplicity(forms, (0, 0), 10) == 1
    assert oracle_multiplicity(forms, (2, 0), 10) == 1
    assert oracle_multiplicity(forms, (4, 2), 10) == 1
    assert oracle_multiplicity(forms, (2, 1), 10) == 0
    assert oracle_multiplicity(forms, (1, 0), 10) == 0
    assert oracle_multiplicity(forms, (2, -2), 10) == 0


def test_oracle_matrices():
    mats = builtin_variety(TWO_BY_TWO_MATRICES)
    for n in range(0, 3):
        for m in range(0, 3):
            assert oracle_multiplicity(mats, ((n, m), (n, m)), 12) == 1
    assert oracle_multiplicity(mats, ((1, 0), (1, -1)), 12) == 0
    assert oracle_multiplicity(mats, ((1, 1), (1, 0)), 12) == 0
    assert oracle_multiplicity(mats, ((2, -1), (2, -1)), 12) == 0


def test_oracle_reads_labels_like_rep_from_label():
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    mats = builtin_variety(TWO_BY_TWO_MATRICES)
    assert oracle_multiplicity(forms, [2, 0]) == 1
    assert oracle_multiplicity(mats, [[1, 0], [1, 0]]) == 1
    for spec, label in [
        (forms, (-4, 4)),
        (forms, (2.0, 0)),
        (forms, (True, 0)),
        (forms, (2, 0, 0)),
        (forms, ((2, 0), (0, 0))),
        (mats, (2, 0)),
        (mats, ((1, 0), (-1, 0))),
    ]:
        with pytest.raises(ValueError):
            oracle_multiplicity(spec, label, 10)


def test_oracle_degree_bound():
    # label (2, 0) lives in degree 1 only; a zero degree bound misses it
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    assert oracle_multiplicity(forms, (2, 0), 0) == 0


def test_oracle_never_negative_on_genuine_modules():
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    mats = builtin_variety(TWO_BY_TWO_MATRICES)
    for d in range(0, 7):
        decompose(coordinate_ring_character(forms, d))
        decompose(coordinate_ring_character(mats, d))
