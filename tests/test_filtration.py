import random
from fractions import Fraction

import pytest

from multifilt.filtration import (
    FilteredSpace,
    GradedVectorSpace,
    NotDecreasing,
    NotExhaustive,
    adapted_basis,
    associated_graded,
    is_filtration_morphism,
    make_filtered,
)
from multifilt.linalg import AmbientMismatch, Mat, Subspace, kernel
from multifilt.serialize import filtered_space_from_json, filtered_space_to_json
from multifilt.verify import random_filtered_space
from reference_paths import reference_annihilator, reference_is_filtration_morphism


def line(dim, entries):
    return Subspace.span(dim, [entries])


def test_make_filtered_single_jump():
    fs = make_filtered(1, {0: Subspace.full(1), 1: Subspace.zero(1)})
    assert fs.jumps() == (0,)
    assert fs.at(0) == Subspace.full(1)
    assert fs.at(1) == Subspace.zero(1)
    assert fs.at(-100) == Subspace.full(1)


def test_make_filtered_two_step_flag():
    fs = make_filtered(2, {0: Subspace.full(2), 1: line(2, [1, 0]), 2: Subspace.zero(2)})
    assert fs.jumps() == (0, 1)
    assert fs.at(1) == line(2, [1, 0])


def test_make_filtered_not_decreasing():
    with pytest.raises(NotDecreasing):
        make_filtered(2, {0: line(2, [1, 0]), 1: Subspace.full(2)})


def test_make_filtered_not_exhaustive():
    with pytest.raises(NotExhaustive):
        make_filtered(2, {0: line(2, [1, 0])})
    with pytest.raises(NotExhaustive):
        make_filtered(1, {})


def test_make_filtered_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        make_filtered(2, {0: Subspace.full(3)})


def test_fill_convention():
    # a value stored at index 2 also answers queries at index 1
    fs = make_filtered(2, {0: Subspace.full(2), 2: line(2, [1, 0])})
    assert fs.at(1) == line(2, [1, 0])
    assert fs.at(2) == line(2, [1, 0])
    assert fs.at(3) == Subspace.zero(2)


def test_morphism_identity_and_zero():
    fs = make_filtered(2, {0: Subspace.full(2), 1: line(2, [1, 0])})
    other = make_filtered(2, {-3: Subspace.full(2), 5: line(2, [0, 1])})
    assert is_filtration_morphism(Mat.identity(2), fs, fs)
    assert is_filtration_morphism(Mat.zero(2, 2), fs, other)


def test_morphism_jump_mismatch():
    src = make_filtered(1, {1: Subspace.full(1)})
    dst = make_filtered(1, {0: Subspace.full(1)})
    one = Mat.identity(1)
    assert not is_filtration_morphism(one, src, dst)
    assert is_filtration_morphism(one, dst, src)


def test_morphism_shape_check():
    fs = make_filtered(2, {0: Subspace.full(2)})
    with pytest.raises(AmbientMismatch):
        is_filtration_morphism(Mat.zero(3, 2), fs, fs)


def test_morphism_composition_random():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 4)
        fa = random_filtered_space(rng, max_dim=dim)
        fa = fa if fa.dim == dim else make_filtered(dim, {0: Subspace.full(dim)})
        fb = make_filtered(dim, {0: Subspace.full(dim)})
        fc = random_filtered_space(rng, max_dim=dim)
        fc = fc if fc.dim == dim else make_filtered(dim, {0: Subspace.full(dim)})
        f = Mat.from_rows([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        g = Mat.from_rows([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if is_filtration_morphism(f, fa, fb) and is_filtration_morphism(g, fb, fc):
            assert is_filtration_morphism(g @ f, fa, fc)


def _preimage_filtration(f, dst):
    """F(i) = f^-1(F_dst(i)) at every jump of dst and one index either
    side: the largest filtration f maps into dst, with dst's jumps."""
    jumps = dst.jumps()
    indices = (*jumps, min(jumps, default=0) - 1, max(jumps, default=0) + 1)
    return make_filtered(f.cols, {i: kernel(reference_annihilator(dst.at(i)) @ f) for i in indices})


def test_morphism_check_at_source_jumps_matches_reference():
    # a map passes from the preimage filtration F and from F'(i) = F(i + k)
    # for k >= 0, which lies inside F and whose jumps are not the target's;
    # k < 0 or a random source mostly fails
    rng = random.Random(47)
    outcomes = []
    for _ in range(360):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        dst = random_filtered_space(rng, dim=m)
        f = Mat.from_rows([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)], n)
        kind = rng.randrange(3)
        if kind == 2:
            src = random_filtered_space(rng, dim=n)
        else:
            src = _preimage_filtration(f, dst)
            shift = rng.randint(0, 3) if kind == 0 else rng.randint(-3, 0)
            src = make_filtered(n, {i - shift: sub for i, sub in src.steps})
        got = is_filtration_morphism(f, src, dst)
        assert got == reference_is_filtration_morphism(f, src, dst)
        assert got or kind
        outcomes.append((got, bool(set(src.jumps()) - set(dst.jumps())), bool(set(dst.jumps()) - set(src.jumps()))))
    assert outcomes.count((True, True, True)) > 20 and [got for got, _, _ in outcomes].count(False) > 60


def test_filtration_indices_are_ints():
    full, x_axis = Subspace.full(2), line(2, [1, 0])
    for bad in (0.5, Fraction(1, 2), "0"):
        with pytest.raises(TypeError):
            make_filtered(2, {bad: full, 3: x_axis})
        with pytest.raises(TypeError, match="is not an int"):
            FilteredSpace(2, ((bad, full), (3, x_axis)))
    with pytest.raises(TypeError, match="is not an int"):
        FilteredSpace(1, ((True, Subspace.full(1)),))
    # a bool index is read as its int, and written as one
    fs = make_filtered(1, {True: Subspace.full(1)})
    assert fs.steps == ((1, Subspace.full(1)),) and type(fs.steps[0][0]) is int
    assert filtered_space_to_json(fs)["steps"][0]["index"] == 1
    assert filtered_space_from_json(filtered_space_to_json(fs)) == fs


def test_associated_graded_examples():
    fs = make_filtered(3, {0: Subspace.full(3)})
    assert associated_graded(fs) == GradedVectorSpace.of({0: 3})
    flag = make_filtered(2, {0: Subspace.full(2), 2: line(2, [1, 0])})
    assert associated_graded(flag) == GradedVectorSpace.of({0: 1, 2: 1})
    assert associated_graded(make_filtered(0, {})) == GradedVectorSpace.of({})


def test_graded_total_random():
    rng = random.Random(29)
    for _ in range(60):
        fs = random_filtered_space(rng, max_dim=5)
        assert associated_graded(fs).total() == fs.dim


def test_adapted_basis_examples():
    fs = make_filtered(1, {0: Subspace.full(1)})
    assert adapted_basis(fs) == (((1,), 0),)

    flag = make_filtered(2, {0: Subspace.full(2), 1: line(2, [1, 1])})
    basis = adapted_basis(flag)
    assert [lvl for _, lvl in basis] == [1, 0]
    assert basis[0][0] == (1, 1)
    assert basis[1][0] == (1, 0)  # earliest pivot completes the basis

    trivial = make_filtered(3, {4: Subspace.full(3)})
    assert all(lvl == 4 for _, lvl in adapted_basis(trivial))


def test_adapted_basis_round_trip_random():
    rng = random.Random(31)
    for _ in range(60):
        fs = random_filtered_space(rng, max_dim=5)
        tagged = adapted_basis(fs)
        for i in fs.jumps():
            rebuilt = Subspace.span(fs.dim, [v for v, lvl in tagged if lvl >= i])
            assert rebuilt == fs.at(i)


def test_direct_construction_must_be_normalized():
    full, x_axis = Subspace.full(2), line(2, [1, 0])
    assert FilteredSpace(2, ((0, full), (1, x_axis))) == make_filtered(2, {0: full, 1: x_axis})
    assert FilteredSpace(0, ()) == make_filtered(0, {})
    bad = [
        ((0, full), (1, Subspace.zero(2))),  # zero step
        ((0, full), (1, x_axis), (2, x_axis)),  # repeated subspace
        ((0, x_axis),),  # first step not full
        (),  # nothing full in a nonzero space
        ((1, full), (0, x_axis)),  # indices not increasing
        ((0, full), (1, line(3, [1, 0, 0]))),  # ambient mismatch
    ]
    for steps in bad:
        with pytest.raises(ValueError):
            FilteredSpace(2, steps)


def test_negative_dimension_is_rejected():
    for build in (lambda: make_filtered(-1, {}), lambda: FilteredSpace(-1, ())):
        with pytest.raises(ValueError, match="^dimension -1 is negative$"):
            build()
    assert make_filtered(0, {}) == FilteredSpace(0, ())
