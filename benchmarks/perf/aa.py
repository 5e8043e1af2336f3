"""A/A repeatability: run one commit against itself and compare with the bounds.

    python3 benchmarks/perf/aa.py --runs 5     # 2 sets of 5 seeds per workload
    python3 benchmarks/perf/aa.py --runs 10    # the driver's acceptance rule

Each run is a fresh ``run.py`` process with a seed of its own.  Two sets of
``--runs`` runs are made per workload, as the driver does.  For every
end-to-end metric the tool prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
(q3 - q1) / median of each set, and fails when a spread exceeds the metric's
bound in ``BENCHMARK.json`` (``setup_s`` is exempt from that rule, as with
the driver) or when the second set's median is worse than the first's by more
than the bound.  The observed spreads and drifts are written next to the
bounds in ``benchmarks/perf/aa_spreads.json``; a bound is changed only with
that file as the evidence.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETS = 2
#: First seed; none of these was used while the harness was written.
SEED_BASE = 101


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid,
            "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (two sets are made)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    failures = []
    worst = {name: {"bound": meta["bound"], "worst_spread": 0.0,
                    "worst_drift": 0.0} for name, meta in metrics.items()}
    record = {"runs": args.runs, "sets": SETS, "seconds": bench["run_seconds"],
              "bounds": worst, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            seeds = [SEED_BASE + s * args.runs + i for i in range(args.runs)]
            runs = []
            for seed in seeds:
                runs.append(one_run(workload, seed, bench["run_seconds"]))
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
                      flush=True)
            sets.append({"seeds": seeds,
                         "metrics": {name: summarize([r[name] for r in runs])
                                     for name in metrics}})
        record["workloads"][workload] = sets
        print(f"{workload}")
        print(f"  {'metric':<28s}{'median':>12s}{'q1':>12s}{'q3':>12s}"
              f"{'spread':>9s}{'bound':>7s}")
        for name, meta in metrics.items():
            for s, result in enumerate(sets):
                row = result["metrics"][name]
                over = row["spread"] > meta["bound"] and name != "setup_s"
                print(f"  {name:<28s}{row['median']:>12.5g}{row['q1']:>12.5g}"
                      f"{row['q3']:>12.5g}{row['spread']:>9.4f}"
                      f"{meta['bound']:>7.2f}{'  OVER' if over else ''}")
                worst[name]["worst_spread"] = max(worst[name]["worst_spread"],
                                                  row["spread"])
                if over:
                    failures.append(f"{workload}.{name} set {s + 1}: spread "
                                    f"{row['spread']:.4f} > {meta['bound']}")
            drift = worse_by(sets[0]["metrics"][name]["median"],
                             sets[1]["metrics"][name]["median"], meta["better"])
            sets[1]["metrics"][name]["worse_than_first"] = drift
            worst[name]["worst_drift"] = max(worst[name]["worst_drift"], drift)
            if drift > meta["bound"]:
                failures.append(f"{workload}.{name}: second median worse "
                                f"by {drift:.4f} > {meta['bound']}")
    record["failures"] = failures
    (HERE / "aa_spreads.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{'metric':<28s}{'bound':>7s}{'worst spread':>14s}{'worst drift':>13s}")
    for name, row in worst.items():
        print(f"{name:<28s}{row['bound']:>7.2f}{row['worst_spread']:>14.4f}"
              f"{row['worst_drift']:>13.4f}")
    for line in failures:
        print("FAIL", line)
    print("A/A", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
