"""Run the repo benchmark.

    python3 benchmarks/perf/run.py --workload all --seed 1          # every end-to-end metric
    python3 benchmarks/perf/run.py --workload all --seed 1 --trace  # per-layer metrics + spans
    python3 benchmarks/perf/run.py --smoke                          # tiny sizes, same code path

One workload per process: ``--workload all`` starts one child per workload,
which is also how the driver calls it (``--workload <name> --seed <n>
--seconds <s> --trace <0|1>``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
report (environment, sample counts, both metric sets) goes to
``benchmarks/perf/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def git_sha(root: pathlib.Path) -> str:
    """HEAD of ``root`` read from its own ``.git`` (never a parent's)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="read_ood | read_pq | churn_wal | cluster_door | all")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the dataset, the build and the op mix")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget; scales the operation counts")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: quarter of the operations, spans on, "
                             "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code path and checks")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, names) -> int:
    """One child process per workload, then a one-line summary."""
    worst = 0
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    summary = {"claim": None, "seed": args.seed, "trace": args.trace,
               "correct": worst == 0, "workloads": {}}
    for name in names:
        path = report_path(name, args.trace, args.smoke)
        if path.is_file():
            report = json.loads(path.read_text())
            summary["workloads"][name] = {
                key: entry["value"] for key, entry in report["metrics"].items()}
    print(json.dumps(summary))
    return worst


def report_path(name: str, trace: int, smoke: bool) -> pathlib.Path:
    return OUT / f"{name}{'.smoke' if smoke else ''}.trace{trace}.json"


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<40s} {value:>14.6g} {unit:<6s} {note}")


def run_one(args: argparse.Namespace) -> int:
    # The script directory would shadow the standard library (trace.py);
    # import the harness as the package ``perf`` instead.
    sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]
    import numpy as np
    from perf import config as cfg
    from perf.workloads import RUNNERS, Run
    from repro.obs import OBS

    if args.workload not in RUNNERS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OBS.disable()  # end-to-end numbers are taken with repro.obs off
    trace = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else cfg.REFERENCE_SECONDS
    if args.smoke:
        sizes = cfg.scaled(cfg.SMOKE, cfg.REFERENCE_SECONDS, trace)
    else:
        sizes = cfg.scaled(cfg.FULL, seconds, trace)

    tmp = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    run = Run(args.seed, sizes, trace, tmp)
    try:
        RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [name for name, *_ in cfg.END_TO_END
               if not run.e2e.get(name, 0) > 0]
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    recall_ok = run.e2e["recall_at_10"] >= cfg.RECALL_FLOOR
    correct = run.tally.failed == 0 and recall_ok
    run.layers["harness.fail_ratio"] = run.tally.fail_ratio

    e2e = {name: {"value": float(run.e2e[name]), "unit": unit}
           for name, unit, *_ in cfg.END_TO_END}
    # A layer the workload bypasses did no work: its counts and times read 0.
    layers = {name: {"value": float(run.layers.get(name, 0.0)), "unit": unit}
              for name, unit, _ in cfg.PER_LAYER}
    report = {
        "claim": None,
        "workload": args.workload,
        "why": cfg.WORKLOADS[args.workload],
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "fail_reasons": dict(run.tally.reasons),
        "recall_floor": cfg.RECALL_FLOOR,
        "metrics": e2e,
        "per_layer": layers,
        "measured_layers": sorted(run.layers),
        "samples": run.samples,
        "info": run.info,
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "git_sha": git_sha(ROOT), "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "smoke": args.smoke,
            "sizes": dataclasses.asdict(sizes), "dim": cfg.DIM, "k": cfg.K,
            "M": cfg.M, "ef_construction": cfg.EF_CONSTRUCTION, "ef": cfg.EF,
            "ef_shard": cfg.EF_SHARD, "batch": cfg.BATCH,
            "flush_policy": cfg.FLUSH_POLICY, "repro_obs": "off",
        },
    }
    OUT.mkdir(exist_ok=True)
    report_path(args.workload, args.trace, args.smoke).write_text(
        json.dumps(report, indent=1, default=str))
    if run.tracer is not None:
        spans = OUT / f"{args.workload}.spans.jsonl"
        run.tracer.write(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(run.tracer.spans)} spans)")

    env = report["env"]
    print(f"== {args.workload}  seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}  "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"git={env['git_sha'][:12]} ==")
    print(f"  sizes: n_base={sizes.n_base} n_train={sizes.n_train} "
          f"n_test={sizes.n_test} ef={cfg.EF} ef_shard={cfg.EF_SHARD} k={cfg.K}")
    print_table("end-to-end" + (" (traced run: a quarter of the operations)"
                                if trace else ""),
                [(name, entry["value"], entry["unit"], run.samples.get(name, ""))
                 for name, entry in e2e.items()])
    print_table("per-layer, measured in this run (report-only)",
                [(name, layers[name]["value"], layers[name]["unit"],
                  run.samples.get(name, ""))
                 for name in layers if name in run.layers])
    print(f"  checks: {run.tally.failed} failed of {run.tally.attempted} "
          f"operations {dict(run.tally.reasons) or ''}; recall_at_10 "
          f"{run.e2e['recall_at_10']:.4f} (floor {cfg.RECALL_FLOOR}) -> "
          f"{'correct' if correct else 'INCORRECT'}")
    print(json.dumps({"correct": correct, "attempted": run.tally.attempted,
                      "failed": run.tally.failed,
                      "metrics": layers if trace else e2e}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} is missing: the benchmark "
              "measures the program in this checkout and has none to measure",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # Names only; importing the harness is the children's business.
        names = ("read_ood", "read_pq", "churn_wal", "cluster_door")
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
