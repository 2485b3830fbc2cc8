"""Alternating pairs of benchmark runs: a base commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --pairs 10 --seed 5 --out BENCH_<n>.json

Both sides run from fresh copies in a temporary directory: the base commit
(``--base``, default HEAD) exported with ``git archive``, and the working
tree copied file by file (tracked files plus untracked ones git does not
ignore, as they are on disk).  Neither copy holds a ``__pycache__``, and every
run has PYTHONDONTWRITEBYTECODE=1, because ``setup_s`` mostly measures
bytecode compilation and reads about 2x lower from a checkout with stale
bytecode.  An export also leaves nothing registered in the repository, so
an interrupted run needs no clean-up beyond its temporary directory.

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once per side and per workload of BENCHMARK.json, with T its
``run_seconds``; which side goes first alternates from pair to pair.
``--workload NAME``, repeatable, runs only the named workloads, in
BENCHMARK.json's order; a name it does not list is an error.  The output
file names the workloads that ran under ``workloads_run`` and holds, per
workload and side, the ops attempted and failed (in
total, and attempted per run), and per end-to-end metric of BENCHMARK.json,
each side's runs, median and quartiles, the pairs the working tree won and
tied, the relative change of the medians, whether that change stays
within the metric's bound, and whether the change resolves a gain in the
metric (``gain_holds``, the benchmark's rule: see summarize), with the
names of the metrics that do under ``resolved_gains``.  It also holds, per
workload, the straight line ``peak_rss_mb = a + b * attempted`` fitted
over all runs of both sides, so that the share of a memory change that
comes from pass count alone can be read off the data; and the memory
headroom, the extra ops per run at which that line climbs by the
``peak_rss_mb`` bound over the base median, in ops and as a share of the
base side's median ops attempted, so that a speed-up can be sized
against the memory bound before it is built.  While it runs,
each pair prints one line to stderr with both sides' ``ops_per_s`` and
``peak_rss_mb``; at the end, one line per workload and metric gives the
change of the medians, the pairs won, the base side's interquartile range
and whether the gain is resolved (claim_lines).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse_result(stdout: str) -> dict:
    """The result object of one ``bench/run.py`` run: its last stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark run printed nothing")
    result = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError(f"not a benchmark result line: {lines[-1][:200]}")
    return result


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def _ops_and_rss(runs: list[dict]) -> tuple[list[int], list[float]]:
    return [r["attempted"] for r in runs], [r["metrics"]["peak_rss_mb"]["value"] for r in runs]


def fit_rss(pairs: list[tuple[dict, dict]]) -> dict | None:
    """Least-squares line ``peak_rss_mb = a + b * attempted`` over every run
    of both sides: b in MB per 1000 ops, a in MB, and the correlation r.
    None when the runs attempted fewer than two distinct counts; r is None
    when every run read the same memory."""
    ops, rss = _ops_and_rss([r for p in pairs for r in p])
    if len(set(ops)) < 2:
        return None
    slope, intercept = statistics.linear_regression(ops, rss)
    r = statistics.correlation(ops, rss) if len(set(rss)) > 1 else None
    return {"mb_per_1000_ops": slope * 1000, "intercept_mb": intercept, "r": r}


def rss_headroom(pairs: list[tuple[dict, dict]], fit: dict | None, end_to_end: list[dict]) -> float | None:
    """Extra ops attempted per run at which the fitted ``peak_rss_mb`` rises
    by the metric's bound over the base median: the bound times the base
    side's median memory, over the fit's slope.  None without a fit, a
    rising slope or a ``peak_rss_mb`` metric."""
    bound = next((m["bound"] for m in end_to_end if m["name"] == "peak_rss_mb"), None)
    if fit is None or bound is None or fit["mb_per_1000_ops"] <= 0:
        return None
    base_rss = statistics.median(p[0]["metrics"]["peak_rss_mb"]["value"] for p in pairs)
    return bound * base_rss / (fit["mb_per_1000_ops"] / 1000)


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per-side spreads and pair outcomes of one workload.

    ``pairs`` holds (base result, change result) per pair, as parse_result
    returns them; ``end_to_end`` is BENCHMARK.json's metric list.  Each
    side's ``attempted_runs`` lists the ops attempted in each of its runs, in
    pair order, as the metrics' ``runs`` do, so that a figure that grows with
    the run's length (peak memory) can be read against its pass count.  A pair is
    a win when the change's value is better in the metric's direction and a
    tie when the two are equal.  The gain rule is the benchmark's: at least
    nine tenths of the pairs won, and medians further apart than the base's
    interquartile range.  ``peak_rss_fit`` is fit_rss over the same runs,
    ``rss_headroom_ops`` is rss_headroom of that fit, and
    ``rss_headroom_share`` is that over the base side's median ops
    attempted: the ``ops_per_s`` speed-up the memory bound leaves room for.
    ``resolved_gains`` names the metrics whose gain holds, in metric order.
    """
    out: dict = {}
    for k, side in enumerate(SIDES):
        attempted = [p[k]["attempted"] for p in pairs]
        out[side] = {"attempted": sum(attempted), "failed": sum(p[k]["failed"] for p in pairs), "attempted_runs": attempted}
    out["all_correct"] = all(r["correct"] for p in pairs for r in p)
    out["peak_rss_fit"] = fit_rss(pairs)
    out["rss_headroom_ops"] = headroom = rss_headroom(pairs, out["peak_rss_fit"], end_to_end)
    base_ops = statistics.median(out["base"]["attempted_runs"])
    out["rss_headroom_share"] = None if headroom is None else headroom / base_ops
    out["metrics"] = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = [[p[k]["metrics"][name]["value"] for p in pairs] for k in range(2)]
        base, change = (_spread(v) for v in values)
        gains = [sign * (c - b) for b, c in zip(*values)]
        relative = (change["median"] - base["median"]) / base["median"] if base["median"] else None
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base,
            "change": change,
            "change_wins": sum(g > 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "pairs": len(pairs),
            "relative_change": relative,
            "within_bound": relative is None or -sign * relative <= metric["bound"],
            "gain_holds": sum(g > 0 for g in gains) >= 0.9 * len(pairs)
            and sign * (change["median"] - base["median"]) > base["q3"] - base["q1"],
        }
    out["resolved_gains"] = [name for name, m in out["metrics"].items() if m["gain_holds"]]
    return out


def claim_lines(workload: str, summary: dict) -> list[str]:
    """One line per metric of a workload's summary: the relative change of
    the medians, the pairs the change won, the medians' gap in the metric's
    better direction against the base side's interquartile range, and
    whether the gain is resolved."""
    out = []
    for name, m in summary["metrics"].items():
        base, change = m["base"]["median"], m["change"]["median"]
        gap = change - base if m["better"] == "higher" else base - change
        relative = "n/a" if m["relative_change"] is None else f"{m['relative_change']:+.1%}"
        verdict = "gain resolved" if m["gain_holds"] else "no resolved gain"
        out.append(
            f"{workload} {name}: {relative}, {m['change_wins']}/{m['pairs']} pairs won, "
            f"gap {gap:.4g} {m['unit']} vs base IQR {m['base']['q3'] - m['base']['q1']:.4g}: {verdict}"
        )
    return out


def pair_line(got: dict[str, dict]) -> str:
    """Both sides' ``ops_per_s`` and ``peak_rss_mb`` in one pair, as the
    progress line shows them: the speed next to the memory it spends."""
    values = {name: {side: got[side]["metrics"][name]["value"] for side in SIDES} for name in ("ops_per_s", "peak_rss_mb")}
    return ", ".join(f"{name} {sides}" for name, sides in values.items())


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export_commit(rev: str, dest: Path) -> None:
    """The files of commit rev, as ``git archive`` writes them, in dest."""
    dest.mkdir(parents=True)
    archive = dest.parent / f"{dest.name}.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_working_tree(dest: Path) -> None:
    """Tracked files and untracked files git does not ignore, as on disk;
    ignored files, bytecode among them, stay behind."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 is a run with failed ops, which the result reports
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def parse_args(argv, workloads: list[str]):
    """The command line, with ``workloads`` the names BENCHMARK.json lists;
    ``args.workloads`` is the names to run, in that order."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against (default HEAD)")
    parser.add_argument(
        "--workload", action="append", choices=workloads, metavar="NAME", help="run only this workload (repeatable; default every one)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    args.workloads = [w for w in workloads if args.workload is None or w in args.workload]
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    workloads = args.workloads
    seconds = spec["run_seconds"]
    base_sha = _git("rev-parse", args.base).strip()
    results: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export_commit(base_sha, trees["base"])
        copy_working_tree(trees["change"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                got = {side: run_bench(trees[side], workload, args.seed, seconds) for side in order}
                results[workload].append((got["base"], got["change"]))
                print(f"pair {i + 1}/{args.pairs} {workload}: first {order[0]}, {pair_line(got)}", file=sys.stderr)
    report = {
        "base": base_sha,
        "change": {"head": _git("rev-parse", "HEAD").strip(), "dirty": bool(_git("status", "--porcelain").strip())},
        "command": f"python3 bench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "workloads_run": workloads,
        "first_side": [SIDES[i % 2] for i in range(args.pairs)],
        "env": {"python": platform.python_version(), "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
        "workloads": {w: summarize(results[w], spec["end_to_end"]) for w in workloads},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, summary in report["workloads"].items():
        print("\n".join(claim_lines(workload, summary)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
