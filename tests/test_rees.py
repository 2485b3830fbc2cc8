import random
import time
from fractions import Fraction

import pytest

from multifilt.filtration import GradedVectorSpace, associated_graded, make_filtered
from multifilt.linalg import AmbientMismatch, Subspace
from multifilt.rees import GradedFreeModule, RankDeficient, derees, fiber_at_zero, rees_construct
from multifilt import verify
from multifilt.verify import random_filtered_space, random_invertible
from reference_paths import reference_derees


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


def _outcome(f, m):
    """The filtered space f returns, or the type and message it raises."""
    try:
        return f(m)
    except (RankDeficient, AmbientMismatch) as exc:
        return type(exc), str(exc)


def test_random_invertible_gives_up_when_rank_undercounts(monkeypatch):
    # a rank that never reads full would hang an unbounded draw loop
    monkeypatch.setattr(verify, "rank", lambda m: m.rows - 1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"no invertible 3 x 3 matrix in 100 random draws"):
        random_invertible(random.Random(1), 3)
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    m = random_invertible(random.Random(1), 3)
    assert m.rows == m.cols == 3 and verify.rank(m) == 3


def _random_module(rng: random.Random, dim: int) -> GradedFreeModule:
    """dim generators built directly, in no degree order, with repeated
    degrees: small entries, ints or Fractions, or the rows of an invertible
    matrix, one of them replaced by a combination of the others or not."""
    kind = rng.randrange(3)
    if kind == 0 or dim == 0:
        vecs = [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]) for _ in range(dim)] for _ in range(dim)]
    else:
        vecs = random_invertible(rng, dim).row_list()
    if kind == 2 and dim:
        i = rng.randrange(dim)
        coeffs = [rng.randint(-2, 2) if j != i else 0 for j in range(dim)]
        vecs[i] = [sum(c * v[k] for c, v in zip(coeffs, vecs)) for k in range(dim)]
    return GradedFreeModule(dim, tuple((tuple(v), rng.randint(-3, 3)) for v in vecs))


def test_derees_matches_prefix_spans_on_random_modules():
    rng = random.Random(14)
    kinds = {"filtered": 0, "dependent": 0}
    for _ in range(400):
        m = _random_module(rng, rng.randint(0, 8))
        got = _outcome(derees, m)
        assert got == _outcome(reference_derees, m)
        kinds["dependent" if got == (RankDeficient, "generators must be independent and of full rank") else "filtered"] += 1
    # both outcomes are exercised, not one of them only
    assert min(kinds.values()) > 100


def test_derees_matches_prefix_spans_on_int_entries():
    # unsorted degrees, a repeated degree and plain ints, built directly
    m = GradedFreeModule(3, (((0, 0, 3), 2), ((1, 2, 0), -1), ((0, 5, 1), 2)))
    assert derees(m) == reference_derees(m)
    assert derees(m).at(1) == Subspace.span(3, [[1, 2, 0]])
    assert derees(m).at(-1) == derees(m).at(1) != derees(m).at(-2) == Subspace.full(3)


def test_derees_errors_match_prefix_spans():
    cases = [
        # a wrong count is reported before anything else
        GradedFreeModule(2, (((1, 0), 0),)),
        GradedFreeModule(2, (((1, 0), 0), ((0, 1), 0), ((1, 1), 1))),
        GradedFreeModule(2, (((1, 0, 0), 0),)),
        # dependent generators, in and across degrees
        GradedFreeModule(2, (((1, 0), 0), ((2, 0), 0))),
        GradedFreeModule(3, (((1, 0, 1), 1), ((0, 1, 0), -2), ((1, 1, 1), 0))),
        GradedFreeModule(2, (((0, 0), 0), ((0, 1), 0))),
        # a wrong length inside a dependent set is a mismatch, not a rank fault
        GradedFreeModule(3, (((1, 0, 0), 0), ((1, 0, 0), 1), ((1, 0), 2))),
        GradedFreeModule(2, (((1, 0, 0), 0), ((2, 0), 0))),
    ]
    expected = [RankDeficient] * 3 + [RankDeficient] * 3 + [AmbientMismatch] * 2
    for m, kind in zip(cases, expected):
        got = _outcome(derees, m)
        assert got == _outcome(reference_derees, m)
        assert got[0] is kind


def test_derees_matches_prefix_spans_on_round_trips():
    rng = random.Random(61)
    for _ in range(200):
        fs = random_filtered_space(rng, max_dim=8)
        module = rees_construct(fs)
        assert derees(module) == reference_derees(module) == fs
