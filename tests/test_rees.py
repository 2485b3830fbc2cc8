import random

import pytest

from multifilt.filtration import GradedVectorSpace, associated_graded, make_filtered
from multifilt.linalg import Subspace
from multifilt.rees import GradedFreeModule, RankDeficient, derees, fiber_at_zero, rees_construct
from multifilt.verify import random_filtered_space


def test_rees_single_jump():
    fs = make_filtered(1, {0: Subspace.full(1)})
    assert rees_construct(fs).generators == (((1,), 0),)


def test_rees_shifted_jump():
    # full at index 2, zero above: the generator sits in degree -2
    fs = make_filtered(1, {2: Subspace.full(1)})
    assert rees_construct(fs).generators == (((1,), -2),)


def test_rees_two_degrees():
    fs = make_filtered(2, {0: Subspace.full(2), 2: Subspace.span(2, [[1, 0]])})
    assert sorted(d for _, d in rees_construct(fs).generators) == [-2, 0]


def test_derees_single_generator():
    mod = GradedFreeModule.of(1, [((1,), 0)])
    assert derees(mod) == make_filtered(1, {0: Subspace.full(1)})


def test_derees_threshold_scan():
    mod = GradedFreeModule.of(2, [((1, 0), -1), ((0, 1), 0)])
    fs = derees(mod)
    assert fs.at(0) == Subspace.full(2)
    assert fs.at(1) == Subspace.span(2, [[1, 0]])
    assert fs.at(2) == Subspace.zero(2)


def test_derees_rank_deficient():
    with pytest.raises(RankDeficient):
        derees(GradedFreeModule.of(2, [((1, 0), 0), ((2, 0), 1)]))
    with pytest.raises(RankDeficient):
        derees(GradedFreeModule.of(2, [((1, 0), 0)]))


def test_fiber_examples():
    assert fiber_at_zero(GradedFreeModule.of(1, [((1,), 0)])) == GradedVectorSpace.of({0: 1})
    mod = GradedFreeModule.of(2, [((1, 0), 0), ((0, 1), -2)])
    assert fiber_at_zero(mod) == GradedVectorSpace.of({0: 1, 2: 1})


def test_round_trip_random():
    rng = random.Random(37)
    for _ in range(100):
        fs = random_filtered_space(rng)
        module = rees_construct(fs)
        assert len(module.generators) == fs.dim
        assert derees(module) == fs
        assert fiber_at_zero(module) == associated_graded(fs)


def test_negative_dimension_is_rejected():
    for build in (lambda: GradedFreeModule(-2, ()), lambda: GradedFreeModule.of(-2, [])):
        with pytest.raises(ValueError, match="^dimension -2 is negative$"):
            build()
    assert derees(GradedFreeModule(0, ())) == make_filtered(0, {})
