"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check compares exact integers or canonical forms; the two table
criteria additionally require the Hom solver and the character oracle to
agree cell by cell.  Each test prints its own pass/fail line.
"""

from multifilt.verify import (
    check_binary_forms_table,
    check_clebsch_gordan,
    check_filtration_shapes,
    check_graded_comparison,
    check_hom_properties,
    check_matrix_table,
    check_rees_round_trip,
)


def _report(i, result, budget=None):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {i}: {result.name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, result.detail
    if budget is not None:
        assert result.seconds < budget, f"{result.name} took {result.seconds:.2f}s, budget {budget}s"


def test_criterion_1_rees_round_trip():
    _report(1, check_rees_round_trip(count=200), budget=1.0)


def test_criterion_2_graded_comparison():
    _report(2, check_graded_comparison(count=200))


def test_criterion_3_binary_forms_table():
    _report(3, check_binary_forms_table(), budget=10.0)


def test_criterion_4_matrix_table():
    _report(4, check_matrix_table(), budget=60.0)


def test_criterion_5_filtration_shapes():
    _report(5, check_filtration_shapes())


def test_criterion_6_clebsch_gordan_conservation():
    _report(6, check_clebsch_gordan())


def test_criterion_7_hom_properties():
    _report(7, check_hom_properties(count=100))


def test_failing_claims_report_their_first_failures(monkeypatch):
    from multifilt import verify
    from multifilt.filtration import GradedVectorSpace

    monkeypatch.setattr(verify, "multiplicity", lambda rep, spec, style: 7)
    result = check_binary_forms_table()
    assert not result.passed
    assert result.detail.startswith("0/117 cells: hom = oracle = indicator(n even, m even, m >= 0); first mismatches: ")
    assert "(0, -6): hom=7 oracle=0 expected=0" in result.detail
    result = check_matrix_table()
    assert not result.passed and result.detail.startswith("0/900 cells")
    monkeypatch.setattr(verify, "derees", lambda module: None)
    result = check_rees_round_trip(count=3)
    assert not result.passed and result.detail.startswith("instance 0: derees(rees(F)) differs from F (dim ")
    monkeypatch.setattr(verify, "fiber_at_zero", lambda module: GradedVectorSpace(((99, 1),)))
    result = check_graded_comparison(count=3)
    assert not result.passed and result.detail.startswith("instance 0: fiber ((99, 1),) vs graded ")


def test_tensor_and_hom_claims_report_their_first_failures(monkeypatch):
    from multifilt import verify

    monkeypatch.setattr(verify, "decompose", lambda tensor: {})
    result = check_clebsch_gordan()
    assert not result.passed
    assert result.detail == (
        "0/1225 products: dimensions conserved and decomposition matches the oracle; first mismatches: "
        + "; ".join(f"decomposition mismatch at (0,{m})x(0,{mp})" for m, mp in ((-2, -2), (-2, -1), (-2, 0), (-2, 1)))
    )
    monkeypatch.setattr(verify, "hom_dim", lambda a, b: 0)
    result = check_hom_properties(count=5)
    assert not result.passed
    assert result.detail == (
        "0/5 instances: identity present and constraints monotone; first failures: "
        + "; ".join(f"instance {k}: hom_dim(a, a) = 0" for k in range(4))
    )
