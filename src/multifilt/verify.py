"""The cross-validation suite behind the verify-paper command.

Every claim is checked by exact arithmetic: round trips are tested for
literal equality of canonical forms, and multiplicity tables are computed
twice, once by the Hom solver and once by the character oracle, then
compared cell by cell against the expected closed-form indicator.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .characters import character_product, decompose, oracle_multiplicity, weight_multiset
from .filtration import FilteredSpace, associated_graded, make_filtered
from .gl2 import (
    GroupActionData,
    H_STYLE_LIE_PLUS_ELEMENTS,
    RepData,
    clebsch_gordan,
    rep_from_label,
    weights_of_label,
)
from .homspaces import FiltObject, grid_labels, hom_dim, multiplicity
from .linalg import Mat, Subspace, rank
from .rees import derees, fiber_at_zero, rees_construct
from .varieties import (
    BINARY_QUADRATIC_FORMS,
    TWO_BY_TWO_MATRICES,
    builtin_variety,
    cocharacter_filtration,
)

ROUND_TRIP_COUNT = 200
HOM_PROPERTY_COUNT = 100
DEFAULT_SEED = 20240811
# draws random_invertible makes before it gives up
MAX_INVERTIBLE_DRAWS = 100


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def random_invertible(rng: random.Random, dim: int) -> Mat:
    """A random invertible dim x dim matrix with small rational entries.

    A draw is singular with small probability (1/9 at dim 1), so
    MAX_INVERTIBLE_DRAWS singular draws in a row point to a fault in rank:
    raise then, rather than draw forever."""
    for _ in range(MAX_INVERTIBLE_DRAWS):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
            for _ in range(dim)
        ]
        m = Mat.from_rows(rows, dim)
        if rank(m) == dim:
            return m
    raise RuntimeError(f"no invertible {dim} x {dim} matrix in {MAX_INVERTIBLE_DRAWS} random draws")


def random_filtered_space(
    rng: random.Random,
    max_dim: int = 6,
    lo: int = -10,
    hi: int = 10,
    dim: int | None = None,
) -> FilteredSpace:
    """A random flag with random jump indices, in a random basis."""
    if dim is None:
        dim = rng.randint(0, max_dim)
    if dim == 0:
        return make_filtered(0, {})
    g = random_invertible(rng, dim)
    nsteps = rng.randint(1, dim)
    step_dims = [dim] + sorted(rng.sample(range(1, dim), nsteps - 1), reverse=True)
    indices = sorted(rng.sample(range(lo, hi + 1), nsteps))
    steps = {
        idx: Subspace.span(dim, [g.row(i) for i in range(d)])
        for idx, d in zip(indices, step_dims)
    }
    return make_filtered(dim, steps)


def random_filt_object_pair(rng: random.Random, max_dim: int = 5) -> tuple[FiltObject, FiltObject]:
    """Two shape-compatible random objects.  Constraints are diagonal with
    small repeated eigenvalues so that nonzero Homs stay common."""
    da = rng.randint(1, max_dim)
    db = rng.randint(1, max_dim)
    ncons = rng.randint(0, 2)
    nfilt = rng.randint(0, 2)

    def build(dim: int) -> FiltObject:
        cons = tuple(
            Mat.from_rows([[rng.choice((0, 1, 2)) if i == j else 0 for j in range(dim)] for i in range(dim)])
            for _ in range(ncons)
        )
        filts = tuple(random_filtered_space(rng, lo=-5, hi=5, dim=dim) for _ in range(nfilt))
        rep = RepData(dim, ((0, 0),) * dim, ())
        return FiltObject(rep, GroupActionData(dim, cons), filts)

    return build(da), build(db)


def _drop(obj: FiltObject, ncons: int, nfilt: int) -> FiltObject:
    return FiltObject(
        obj.rep,
        GroupActionData(obj.rep.dim, obj.h_action.intertwiner_constraints[:ncons]),
        obj.filtrations[:nfilt],
    )


def _filtration_claim(name: str, count: int, seed: int, fault: Callable[[FilteredSpace], str | None], summary: str) -> ClaimResult:
    """A property of count random filtered spaces; fault describes how one
    fails it, or returns None."""
    rng = random.Random(seed)
    start = time.perf_counter()
    for k in range(count):
        problem = fault(random_filtered_space(rng))
        if problem is not None:
            return ClaimResult(name, False, f"instance {k}: {problem}", time.perf_counter() - start)
    return ClaimResult(name, True, f"{count}/{count} {summary}", time.perf_counter() - start)


def check_rees_round_trip(count: int = ROUND_TRIP_COUNT, seed: int = DEFAULT_SEED) -> ClaimResult:
    def fault(fs: FilteredSpace) -> str | None:
        return None if derees(rees_construct(fs)) == fs else f"derees(rees(F)) differs from F (dim {fs.dim})"

    return _filtration_claim("rees round trip", count, seed, fault, "random filtrations recovered exactly")


def check_graded_comparison(count: int = ROUND_TRIP_COUNT, seed: int = DEFAULT_SEED) -> ClaimResult:
    def fault(fs: FilteredSpace) -> str | None:
        via_fiber, via_graded = fiber_at_zero(rees_construct(fs)), associated_graded(fs)
        return None if via_fiber == via_graded else f"fiber {via_fiber.pieces} vs graded {via_graded.pieces}"

    summary = "instances: fiber at zero matches the associated graded"
    return _filtration_claim("graded fiber comparison", count, seed, fault, summary)


def _tally(name: str, total: int, bad: list[str], summary: str, faults: str, start: float) -> ClaimResult:
    """A claim over total instances, of which bad describes the failing ones:
    "k/n summary", then the first few faults when any fail."""
    detail = f"{total - len(bad)}/{total} {summary}"
    if bad:
        detail += f"; first {faults}: " + "; ".join(bad[:4])
    return ClaimResult(name, not bad, detail, time.perf_counter() - start)


def _table_claim(name: str, variety: str, labels: list, indicator: Callable[..., int], rule: str, style: str) -> ClaimResult:
    """Every cell of a table: the Hom solver, the oracle and the closed-form
    indicator must agree."""
    spec = builtin_variety(variety)
    start = time.perf_counter()
    bad = []
    for label in labels:
        hom = multiplicity(rep_from_label(spec.group, label), spec, style)
        oracle = oracle_multiplicity(spec, label, max_degree=20)
        expected = indicator(*label)
        if not (hom == oracle == expected):
            bad.append(f"{label}: hom={hom} oracle={oracle} expected={expected}")
    return _tally(name, len(labels), bad, f"cells: hom = oracle = {rule}", "mismatches", start)


def check_binary_forms_table(style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> ClaimResult:
    def indicator(n: int, m: int) -> int:
        return int(n % 2 == 0 and m % 2 == 0 and m >= 0)

    labels = grid_labels("GL2", range(0, 9), range(-6, 7))
    rule = "indicator(n even, m even, m >= 0)"
    return _table_claim("binary quadratic forms table", BINARY_QUADRATIC_FORMS, labels, indicator, rule, style)


def check_matrix_table(style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> ClaimResult:
    def indicator(left: tuple[int, int], right: tuple[int, int]) -> int:
        return int(left == right and left[1] >= 0)

    labels = grid_labels("GL2xGL2", range(0, 5), range(-2, 4))
    rule = "indicator(n = n', m = m', m >= 0)"
    return _table_claim("2x2 matrices table", TWO_BY_TWO_MATRICES, labels, indicator, rule, style)


def check_filtration_shapes() -> ClaimResult:
    start = time.perf_counter()
    bad = []
    forms = builtin_variety(BINARY_QUADRATIC_FORMS)
    for n in range(0, 9):
        for m in range(-6, 7):
            fs = cocharacter_filtration(rep_from_label("GL2", (n, m)), forms.boundary_cocharacters[0])
            pieces = associated_graded(fs).pieces
            if len(pieces) != n + 1 or any(d != 1 for _, d in pieces):
                bad.append(f"forms (n={n}, m={m}): pieces {pieces}")
    matrices = builtin_variety(TWO_BY_TWO_MATRICES)
    for label in grid_labels("GL2xGL2", range(0, 5), range(-2, 4)):
        (n, _), (np_, _) = label  # type: ignore[misc]
        fs = cocharacter_filtration(rep_from_label("GL2xGL2", label), matrices.boundary_cocharacters[0])
        pieces = associated_graded(fs).pieces
        if len(pieces) != np_ + 1 or any(d != n + 1 for _, d in pieces):
            bad.append(f"matrices {label}: pieces {pieces}")
    detail = "graded pieces have dimension 1 (forms) and n+1 (matrices) on the full grids"
    if bad:
        detail = "shape mismatches: " + "; ".join(bad[:4])
    return ClaimResult("filtration graded piece shapes", not bad, detail, time.perf_counter() - start)


def check_clebsch_gordan() -> ClaimResult:
    start = time.perf_counter()
    bad = []
    total = 0
    for n in range(0, 7):
        for np_ in range(0, 7):
            for m in range(-2, 3):
                for mp in range(-2, 3):
                    total += 1
                    summands = clebsch_gordan((n, m), (np_, mp))
                    if (n + 1) * (np_ + 1) != sum(nn + 1 for nn, _ in summands):
                        bad.append(f"dimension failure at ({n},{m})x({np_},{mp})")
                        continue
                    tensor = character_product(
                        weight_multiset(weights_of_label((n, m))),
                        weight_multiset(weights_of_label((np_, mp))),
                    )
                    expected = {}
                    for lab in summands:
                        expected[lab] = expected.get(lab, 0) + 1
                    if decompose(tensor) != expected:
                        bad.append(f"decomposition mismatch at ({n},{m})x({np_},{mp})")
    summary = "products: dimensions conserved and decomposition matches the oracle"
    return _tally("tensor decomposition conservation", total, bad, summary, "mismatches", start)


def check_hom_properties(count: int = HOM_PROPERTY_COUNT, seed: int = DEFAULT_SEED) -> ClaimResult:
    rng = random.Random(seed)
    start = time.perf_counter()
    bad = []
    for k in range(count):
        a, b = random_filt_object_pair(rng)
        if hom_dim(a, a) < 1:
            bad.append(f"instance {k}: hom_dim(a, a) = 0")
            continue
        ncons = len(a.h_action.intertwiner_constraints)
        nfilt = len(a.filtrations)
        # adding constraints and filtrations must never increase the dimension
        chain = [(0, 0)] + [(c, 0) for c in range(1, ncons + 1)] + [(ncons, f) for f in range(1, nfilt + 1)]
        dims = [hom_dim(_drop(a, c, f), _drop(b, c, f)) for c, f in chain]
        if dims[0] != a.rep.dim * b.rep.dim:
            bad.append(f"instance {k}: unconstrained hom_dim {dims[0]} != {a.rep.dim * b.rep.dim}")
            continue
        for earlier, later in zip(dims, dims[1:]):
            if later > earlier:
                bad.append(f"instance {k}: constraint chain not monotone: {dims}")
                break
    summary = "instances: identity present and constraints monotone"
    return _tally("hom identity and monotonicity", count, bad, summary, "failures", start)


def run_all(style: str = H_STYLE_LIE_PLUS_ELEMENTS) -> list[ClaimResult]:
    return [
        check_rees_round_trip(),
        check_graded_comparison(),
        check_binary_forms_table(style),
        check_matrix_table(style),
        check_filtration_shapes(),
        check_clebsch_gordan(),
        check_hom_properties(),
    ]


def render_report(results: list[ClaimResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.name.ljust(width)}  [{r.seconds:6.2f}s]  {r.detail}")
    tally = sum(r.passed for r in results)
    lines.append(f"{tally}/{len(results)} claims verified")
    return "\n".join(lines)
