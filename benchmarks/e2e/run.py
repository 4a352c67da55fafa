#!/usr/bin/env python3
"""Client-side benchmark of ``repro serve``.  See README.md next to this file.

    python3 benchmarks/e2e/run.py --workload read_hot --seed 23
    python3 benchmarks/e2e/run.py --workload read_hot --trace 1
    python3 benchmarks/e2e/run.py --workload all --repeat 10 --out a.json

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through every finally


def run_once(args: argparse.Namespace) -> int:
    import harness
    import stats

    signal.signal(signal.SIGTERM, _terminate)
    base = Path(args.workdir) if args.workdir else HERE / ".work"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        report = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir)
    except stats.TooFewSamples as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    if set(report.metrics) != {metric["name"] for metric in declared}:
        print("metrics printed and metrics declared in BENCHMARK.json differ: "
              f"{sorted(set(report.metrics) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 4
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit, samples) in report.metrics.items():
        print(f"  {name:<40} {value:>14.4f} {unit:<6} n={samples}")
    print(f"  operations attempted {report.attempted}, "
          f"failed {report.failed}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.metrics.items()},
    }))
    return 0 if report.failed == 0 else 1


def repeat(args: argparse.Namespace) -> int:
    """The noise check: N runs per workload on seeds seed .. seed+N-1,
    workloads alternating, then each end-to-end metric's median, quartiles
    and spread against its bound — what the acceptance driver computes."""
    import ops
    import stats

    names = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    bounds = {m["name"]: m["bound"] for m in _declared()["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    failed = 0
    for index in range(args.repeat):
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed + index),
                       "--seconds", str(args.seconds), "--trace", "0"]
            if args.workdir:
                command += ["--workdir", args.workdir]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{name} seed {args.seed + index}: exit "
                      f"{done.returncode}", file=sys.stderr)
                failed += 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {args.seed + index}: " + "  ".join(
                f"{metric}={entry['value']:.4g}"
                for metric, entry in result["metrics"].items()), flush=True)
    summary: Dict[str, Dict[str, dict]] = {}
    for name in names:
        print(f"\n{name}: {args.repeat} runs")
        summary[name] = {}
        for metric, series in values[name].items():
            if len(series) < 2:
                continue
            row = dict(stats.spread(series), bound=bounds[metric],
                       values=series)
            summary[name][metric] = row
            verdict = "ok" if row["spread"] <= row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "NOISY")
            print(f"  {metric:<26} median {row['median']:>12.4f}  "
                  f"q1 {row['q1']:>12.4f}  q3 {row['q3']:>12.4f}  "
                  f"spread {row['spread']:.4f}  bound {row['bound']:.2f}  "
                  f"{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "repeat": args.repeat,
             "seconds": args.seconds, "workloads": summary}, indent=1) + "\n",
            encoding="utf-8")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ops  # imports repro, hence after the check above

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=ops.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=23,
                        help="corpus and op stream both derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the read phase; mixed_rw runs 10 "
                             "rounds per second asked for (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run: per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="noise check over N seeds ('--workload all' "
                             "alternates the four workloads)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="with --repeat: write the summary as JSON")
    parser.add_argument("--workdir", default=None,
                        help="parent of the run's scratch directory, which "
                             "is removed on exit (default: .work/ here)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_declared()["run_seconds"])
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
