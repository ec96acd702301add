"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads frames,gabor --seeds 11-20
    python3 perfbench/spread.py --seeds 11-20 --save perfbench/out/set1.json
    python3 perfbench/spread.py --seeds 11-20 --against perfbench/out/set1.json

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one run at a
time, and reports for every end-to-end metric the median over seeds and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
is "steady" below a third of the metric's bound in BENCHMARK.json and
"wide" above it; above the bound itself it is "OVER".  --save writes the
medians and spreads to a file; --against compares this set's medians with
a saved set's and flags every metric whose median got worse by more than
its bound.  Exit code 0 only when every spread is steady and no median
shifted past its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def environment(workload, seed):
    """The environment block of a run's full record, without its seed."""
    with open(os.path.join(HERE, "out", "%s-seed%d-trace0.json" % (workload, seed)), encoding="utf-8") as handle:
        env = json.load(handle)["environment"]
    env.pop("seed")
    return env


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s" % (workload, seed, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def _status(share, bound):
    if share > bound:
        return "OVER"
    return "ok" if share <= bound / 3 else "wide"


def _worse_by(new, old, better):
    """How much worse ``new`` is than ``old``, as a share of ``old`` (<= 0 when not worse)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range a-b or a comma list")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", help="write medians and spreads to this JSON file")
    parser.add_argument("--against", help="compare medians with a file written by --save")
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    previous = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            previous = json.load(handle)["workloads"]
    summary = {}
    good = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            runs.append(one_run(workload, seed, args.seconds))
            print("%s seed %d: %.1f s" % (workload, seed, time.perf_counter() - t0), file=sys.stderr)
        summary[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            status = _status(share, bound)
            line = "%-9s %-12s median %12.6g  iqr/median %.4f  bound %.2f  %-4s" % (
                workload, name, median, share, bound, status)
            good &= status == "ok"
            if previous is not None:
                old = previous[workload][name]["median"]
                shift = _worse_by(median, old, m["better"])
                line += "  vs %.6g: worse by %+.4f %s" % (old, shift, "OVER" if shift > bound else "ok")
                good &= shift <= bound
            summary[workload][name] = {"median": median, "iqr_share": share, "bound": bound, "values": values}
            print(line + "  [%s]" % " ".join("%.4g" % v for v in values))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            last = args.workloads.split(",")[-1], _seeds(args.seeds)[-1]
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "environment": environment(*last),
                       "workloads": summary}, handle, indent=1)
            handle.write("\n")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
