"""The aggregation of tools/bench_pairs.py on canned result lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _stdout(ops_per_s: float, rss: float, failed: int = 0, attempted: int = 100) -> str:
    """What bench/run.py prints: a details line, then the result line."""
    details = json.dumps({"workload": "large-cells", "seed": 1})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return f"{details}\n{json.dumps(result)}\n"


def _pairs(base, change):
    return [(bench_pairs.parse_result(_stdout(*b)), bench_pairs.parse_result(_stdout(*c))) for b, c in zip(base, change)]


def test_parse_result_reads_the_last_line():
    result = bench_pairs.parse_result(_stdout(400.0, 26.0) + "\n")
    assert result["metrics"]["ops_per_s"]["value"] == 400.0 and result["correct"]
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")
    with pytest.raises(ValueError):
        bench_pairs.parse_result(json.dumps({"workload": "large-cells"}))


def test_summary_counts_wins_ties_and_spreads():
    base = [(400.0, 26.0), (410.0, 26.0), (420.0, 26.5), (430.0, 26.0), (440.0, 25.5)]
    change = [(600.0, 27.0), (410.0, 26.0), (650.0, 26.5), (620.0, 25.0), (610.0, 27.0)]
    summary = bench_pairs.summarize(_pairs(base, change), END_TO_END)
    ops = summary["metrics"]["ops_per_s"]
    assert ops["base"]["runs"] == [400.0, 410.0, 420.0, 430.0, 440.0]
    assert (ops["base"]["median"], ops["base"]["q1"], ops["base"]["q3"]) == (420.0, 410.0, 430.0)
    assert ops["change"]["median"] == 610.0
    assert (ops["change_wins"], ops["ties"], ops["pairs"]) == (4, 1, 5)
    assert ops["relative_change"] == pytest.approx(190 / 420)
    # 4 of 5 pairs is short of nine tenths, whatever the medians say
    assert ops["within_bound"] and not ops["gain_holds"]
    rss = summary["metrics"]["peak_rss_mb"]
    # lower is better: 26.0 -> 27.0 loses, 26.0 -> 25.0 wins
    assert (rss["change_wins"], rss["ties"]) == (1, 2)
    assert rss["relative_change"] == pytest.approx(0.5 / 26.0) and rss["within_bound"] and not rss["gain_holds"]
    assert summary["base"] == {"attempted": 500, "failed": 0, "attempted_runs": [100] * 5} and summary["all_correct"]


def test_gain_needs_nine_tenths_and_a_gap_past_the_base_spread():
    base = [(400.0 + k, 26.0) for k in range(10)]
    wide = [(400.0 + k + 3, 26.0) for k in range(10)]  # wins every pair; medians 3 apart, base IQR 4.5
    clear = [(500.0 + k, 30.0) for k in range(10)]
    narrow = bench_pairs.summarize(_pairs(base, wide), END_TO_END)["metrics"]
    assert narrow["ops_per_s"]["change_wins"] == 10 and not narrow["ops_per_s"]["gain_holds"]
    summary = bench_pairs.summarize(_pairs(base, clear), END_TO_END)["metrics"]
    assert summary["ops_per_s"]["gain_holds"]
    # +15% peak memory is past the 0.1 bound
    assert not summary["peak_rss_mb"]["within_bound"]


def test_claim_lines_resolve_a_gain_at_nine_tenths_of_the_pairs_and_a_gap_past_the_base_spread():
    # base ops_per_s 400..490: median 445, quartiles 422.5 and 467.5
    base = [(400.0 + 10 * k, 26.0) for k in range(10)]
    nine = [(560.0 + 10 * k, 26.0) for k in range(9)] + [(300.0, 26.0)]
    eight = [(560.0 + 10 * k, 26.0) for k in range(8)] + [(300.0, 26.0)] * 2
    at_the_spread = [(445.0 + 10 * k, 26.0) for k in range(10)]  # wins all ten, medians exactly 45 apart
    resolved = bench_pairs.summarize(_pairs(base, nine), END_TO_END)
    assert resolved["resolved_gains"] == ["ops_per_s"]
    assert bench_pairs.claim_lines("large-cells", resolved) == [
        "large-cells ops_per_s: +33.7%, 9/10 pairs won, gap 150 1/s vs base IQR 45: gain resolved",
        "large-cells peak_rss_mb: +0.0%, 0/10 pairs won, gap 0 MB vs base IQR 0: no resolved gain",
    ]
    for change in (eight, at_the_spread):
        summary = bench_pairs.summarize(_pairs(base, change), END_TO_END)
        assert summary["resolved_gains"] == [] and not summary["metrics"]["ops_per_s"]["gain_holds"]
        assert bench_pairs.claim_lines("large-cells", summary)[0].endswith(": no resolved gain")
    # lower is better for memory: a clear drop in every pair is a resolved gain
    leaner = bench_pairs.summarize(_pairs(base, [(500.0 + k, 20.0) for k in range(10)]), END_TO_END)
    assert leaner["resolved_gains"] == ["ops_per_s", "peak_rss_mb"]
    assert bench_pairs.claim_lines("paper-grids", leaner)[1] == (
        "paper-grids peak_rss_mb: -23.1%, 10/10 pairs won, gap 6 MB vs base IQR 0: gain resolved"
    )


def test_failed_ops_are_summed_per_side():
    summary = bench_pairs.summarize(_pairs([(400.0, 26.0)] * 2, [(500.0, 26.0, 3), (500.0, 26.0)]), END_TO_END)
    assert summary["change"] == {"attempted": 200, "failed": 3, "attempted_runs": [100, 100]} and not summary["all_correct"]
    assert summary["metrics"]["ops_per_s"]["base"]["q1"] == 400.0


def test_each_runs_attempted_count_is_kept_in_pair_order():
    base = [(400.0, 26.0, 0, 1200), (410.0, 26.5, 0, 1230)]
    change = [(520.0, 27.0, 0, 1560), (530.0, 27.5, 1, 1590)]
    summary = bench_pairs.summarize(_pairs(base, change), END_TO_END)
    assert summary["base"]["attempted_runs"] == [1200, 1230]
    assert summary["change"] == {"attempted": 3150, "failed": 1, "attempted_runs": [1560, 1590]}
    # the runs of a metric line up with the attempted counts of the same side
    assert summary["metrics"]["peak_rss_mb"]["change"]["runs"] == [27.0, 27.5]


def test_peak_rss_is_fitted_against_attempted_over_both_sides():
    # every run on rss = 20 + 0.25 MB per 1000 ops, whichever side made it
    base = [(400.0, 20.0 + 0.25 * ops / 1000, 0, ops) for ops in (4000, 6000)]
    change = [(500.0, 20.0 + 0.25 * ops / 1000, 0, ops) for ops in (8000, 12000)]
    fit = bench_pairs.summarize(_pairs(base, change), END_TO_END)["peak_rss_fit"]
    assert fit["mb_per_1000_ops"] == pytest.approx(0.25)
    assert fit["intercept_mb"] == pytest.approx(20.0)
    assert fit["r"] == pytest.approx(1.0)
    # a run off the line lowers the correlation, not the sign of the slope
    scattered = bench_pairs.summarize(_pairs(base, [(500.0, 22.0, 0, 8000), (500.0, 23.5, 0, 12000)]), END_TO_END)["peak_rss_fit"]
    assert scattered["mb_per_1000_ops"] > 0 and 0 < scattered["r"] < 1


def test_peak_rss_fit_needs_two_attempted_counts():
    # one attempted count across every run: no line to fit
    same = bench_pairs.summarize(_pairs([(400.0, 26.0)] * 2, [(500.0, 27.0)] * 2), END_TO_END)
    assert same["peak_rss_fit"] is None
    # memory that never moves has a flat line and no correlation
    flat = bench_pairs.summarize(_pairs([(400.0, 26.0, 0, 100)], [(500.0, 26.0, 0, 150)]), END_TO_END)["peak_rss_fit"]
    assert flat == {"mb_per_1000_ops": 0.0, "intercept_mb": 26.0, "r": None}


def test_rss_headroom_is_the_bound_over_the_base_median_in_fitted_ops():
    # rss = 20 + 0.25 MB per 1000 ops; the base runs read 21.0 and 21.5 MB,
    # so the 0.1 bound is 2.125 MB over their median: 8500 more ops a run
    base = [(400.0, 20.0 + 0.25 * ops / 1000, 0, ops) for ops in (4000, 6000)]
    change = [(500.0, 20.0 + 0.25 * ops / 1000, 0, ops) for ops in (8000, 12000)]
    assert bench_pairs.summarize(_pairs(base, change), END_TO_END)["rss_headroom_ops"] == pytest.approx(8500)
    # a tighter bound leaves less room, in proportion
    tight = [dict(m, bound=0.05) if m["name"] == "peak_rss_mb" else m for m in END_TO_END]
    assert bench_pairs.summarize(_pairs(base, change), tight)["rss_headroom_ops"] == pytest.approx(4250)


def test_rss_headroom_needs_a_rising_fit_and_a_memory_metric():
    # no line, a flat line, a falling line, or no memory bound: no headroom
    same = _pairs([(400.0, 26.0)] * 2, [(500.0, 27.0)] * 2)
    flat = _pairs([(400.0, 26.0, 0, 100)], [(500.0, 26.0, 0, 150)])
    falling = _pairs([(400.0, 26.0, 0, 100)], [(500.0, 25.0, 0, 150)])
    for pairs in (same, flat, falling):
        assert bench_pairs.summarize(pairs, END_TO_END)["rss_headroom_ops"] is None
    rising = _pairs([(400.0, 26.0, 0, 100)], [(500.0, 27.0, 0, 150)])
    assert bench_pairs.summarize(rising, END_TO_END)["rss_headroom_ops"] > 0
    assert bench_pairs.summarize(rising, END_TO_END[:1])["rss_headroom_ops"] is None


def test_rss_headroom_share_is_the_headroom_over_the_base_median_ops():
    # the headroom of 8500 ops a run (see above) over the base side's median
    # of 5000 ops attempted: room for +170% ops_per_s
    base = [(400.0, 20.0 + 0.25 * ops / 1000, 0, ops) for ops in (4000, 6000)]
    change = [(500.0, 20.0 + 0.25 * ops / 1000, 0, ops) for ops in (8000, 12000)]
    summary = bench_pairs.summarize(_pairs(base, change), END_TO_END)
    assert summary["rss_headroom_share"] == pytest.approx(1.7)
    # the change side's counts move the fit, not the denominator
    faster = bench_pairs.summarize(_pairs(base, [(500.0, 21.0, 0, 16000), (500.0, 22.0, 0, 20000)]), END_TO_END)
    assert faster["rss_headroom_share"] == pytest.approx(faster["rss_headroom_ops"] / 5000)
    # no headroom, no share
    flat = _pairs([(400.0, 26.0, 0, 100)], [(500.0, 26.0, 0, 150)])
    assert bench_pairs.summarize(flat, END_TO_END)["rss_headroom_share"] is None


def test_pair_line_shows_both_sides_speed_and_memory():
    got = {"base": bench_pairs.parse_result(_stdout(923.0, 31.5)), "change": bench_pairs.parse_result(_stdout(1064.0, 31.625))}
    assert bench_pairs.pair_line(got) == "ops_per_s {'base': 923.0, 'change': 1064.0}, peak_rss_mb {'base': 31.5, 'change': 31.625}"


WORKLOADS = ["paper-grids", "large-cells", "random-filtered"]


def test_workload_option_is_repeatable_defaults_to_all_and_rejects_unknown_names(capsys):
    common = ["--pairs", "1", "--seed", "5", "--out", "x.json"]
    assert bench_pairs.parse_args(common, WORKLOADS).workloads == WORKLOADS
    assert bench_pairs.parse_args(common + ["--workload", "random-filtered"], WORKLOADS).workloads == ["random-filtered"]
    # repeated names run in BENCHMARK.json's order, once each
    picked = common + ["--workload", "random-filtered", "--workload", "paper-grids", "--workload", "random-filtered"]
    assert bench_pairs.parse_args(picked, WORKLOADS).workloads == ["paper-grids", "random-filtered"]
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(common + ["--workload", "forms"], WORKLOADS)
    assert "invalid choice: 'forms'" in capsys.readouterr().err


def test_only_the_chosen_workloads_run_and_the_output_names_them(tmp_path, monkeypatch):
    ran = []
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())

    def fake_run(tree, workload, seed, seconds):
        ran.append((tree.name, workload, seed))
        value = 400.0 if tree.name == "base" else 500.0
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}
        return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    # no git either: rev-parse names a commit, status reports a clean tree
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40 + "\n" if args[0] == "rev-parse" else "")
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--pairs", "2", "--seed", "11", "--out", str(out), "--workload", "random-filtered"]) == 0
    # two pairs, base first and then change first
    assert ran == [("base", "random-filtered", 11), ("change", "random-filtered", 11), ("change", "random-filtered", 11), ("base", "random-filtered", 11)]
    report = json.loads(out.read_text())
    assert report["workloads_run"] == ["random-filtered"] and list(report["workloads"]) == ["random-filtered"]
    assert report["workloads"]["random-filtered"]["metrics"]["ops_per_s"]["change_wins"] == 2
    assert report["base"] == "0" * 40 and report["change"] == {"head": "0" * 40, "dirty": False}
