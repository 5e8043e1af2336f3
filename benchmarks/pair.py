"""Interleaved parent/child runs of the repo benchmark, judged by its own rule.

    python3 benchmarks/pair.py                           # HEAD vs working tree, 10 pairs, all workloads
    python3 benchmarks/pair.py --workloads cluster_door  # the claimed workload only
    python3 benchmarks/pair.py --parent bbff728 --pairs 1 --workloads read_ood read_pq churn_wal

The parent revision is exported (``git archive``) into a scratch directory
and ``benchmarks/perf/run.py`` is run from there and from this checkout, one
fresh process per run, for ``--pairs`` pairs.  Both sides of pair ``i`` get
seed ``--seed-base + i``; which side goes first alternates, so a drift of
the host lands on both.  Every run is printed as it finishes.  Then, per
workload and end-to-end metric: each side's median and quartiles, the share
of pairs the child won (ties count for neither side), whether the medians
differ by more than the parent's own inter-quartile distance, and whether
the child is worse than the parent by more than the metric's bound in
``BENCHMARK.json``.  A gain is claimable (``GAIN``) from ten pairs up, when
the child wins at least nine tenths of them *and* the difference exceeds the
parent's spread; fewer pairs only show whether anything regressed.

This is a tool around the benchmark, not part of it: it changes no workload
and no metric, and both commits are measured by the ``benchmarks/perf`` each
of them carries.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN_PY = pathlib.Path("benchmarks") / "perf" / "run.py"
#: The claim rule: this many pairs at least, this share of them won.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_revision(revision: str, target: pathlib.Path) -> None:
    """Unpack ``revision``'s tree into ``target`` (nothing is left in .git)."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def one_run(root: pathlib.Path, workload: str, seed: int,
            seconds: float) -> dict[str, float]:
    """End-to-end metrics of one ``run.py`` process started in ``root``."""
    command = [sys.executable, str(root / RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: {workload} seed {seed}: incorrect run "
                           f"{result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def judge(parent: list[float], child: list[float], better: str,
          bound: float) -> dict:
    """The section-8 rule of the ``choosing-metrics`` guide for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, child))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, child))
    p_q1, p_mid, p_q3 = quartiles(parent)
    c_q1, c_mid, c_q3 = quartiles(child)
    worse_by = sign * (c_mid - p_mid) / p_mid if p_mid else 0.0
    beyond_spread = abs(c_mid - p_mid) > (p_q3 - p_q1)
    return {
        "parent": (p_mid, p_q1, p_q3), "child": (c_mid, c_q1, c_q3),
        "wins": wins, "losses": losses, "pairs": len(parent),
        "beyond_parent_iqr": beyond_spread, "worse_by": worse_by,
        "gain": (len(parent) >= MIN_PAIRS and worse_by < 0 and beyond_spread
                 and wins >= WIN_SHARE * len(parent)),
        "regression": worse_by > bound,
    }


def print_workload(workload: str, verdicts: dict[str, dict]) -> None:
    print(workload)
    print(f"  {'metric':<27s}{'parent med [q1, q3]':>34s}"
          f"{'child med [q1, q3]':>34s}{'child W-L/n':>13s}{'> IQR':>7s}"
          f"{'better by':>10s}  verdict")
    for name, v in verdicts.items():
        sides = ["{:.5g} [{:.5g}, {:.5g}]".format(*v[side])
                 for side in ("parent", "child")]
        verdict = ("GAIN" if v["gain"] else
                   "REGRESSION" if v["regression"] else "-")
        print(f"  {name:<27s}{sides[0]:>34s}{sides[1]:>34s}"
              f"{v['wins']:>7d}-{v['losses']}/{v['pairs']:<3d}"
              f"{'yes' if v['beyond_parent_iqr'] else 'no':>7s}"
              f"{-v['worse_by']:>+10.1%}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="revision the working tree is compared with")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/child pairs per workload (>= 10 to "
                             "claim a gain)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seed-base", type=int, default=31,
                        help="pair i runs both sides at seed base + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")
    seconds = bench["run_seconds"]

    print(f"env: {os.cpu_count()} cores, {platform.platform()}, python "
          f"{platform.python_version()}, numpy {metadata.version('numpy')}")
    print(f"parent: {git('rev-parse', '--short', args.parent)}   child: "
          f"working tree at {git('rev-parse', '--short', 'HEAD')}"
          f"{' + uncommitted changes' if git('status', '--porcelain') else ''}"
          f"   run_seconds: {seconds}   pairs: {args.pairs}")

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="pair-parent-"))
    status = 0
    try:
        export_revision(args.parent, scratch)
        sides = {"parent": scratch, "child": ROOT}
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "child": []}
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
                for side in order:
                    run = one_run(sides[side], workload, seed, seconds)
                    runs[side].append(run)
                    print(f"  {workload} pair {i + 1} seed {seed} {side:<6s} "
                          + " ".join(f"{k}={v:.5g}" for k, v in run.items()),
                          flush=True)
            verdicts = {
                name: judge([r[name] for r in runs["parent"]],
                            [r[name] for r in runs["child"]],
                            meta["better"], meta["bound"])
                for name, meta in metrics.items()}
            print_workload(workload, verdicts)
            if any(v["regression"] for v in verdicts.values()):
                status = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
