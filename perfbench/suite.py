"""Runs every benchmark workload, one fresh process at a time, and reports.

    python3 perfbench/suite.py                      # seed 1, all workloads
    python3 perfbench/suite.py --seeds 1-10 --out perfbench/results/baseline.json

Every run lasts BENCHMARK.json's ``run_seconds``. For each workload this
makes one untraced run per seed (the end-to-end numbers), then
TRACED_PAIRS pairs of an untraced and a traced run on the first seed (the
per-layer numbers and the tracing overhead). It then checks, across
processes, that

- the two runs of a pair have the same trace fingerprint, so tracing
  changes no result and the package is deterministic;
- every call, trial and iteration count repeats exactly between the
  traced runs;

and reports, per metric, the median and quartiles over seeds with
(q3 - q1) / median as the spread, and the environment. The tracing
overhead is the median over pairs of traced over untraced epoch time:
the machine's speed drifts by 10-20% over minutes, so only runs made
back to back are compared. The exit status is 1 when any run or check
fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import quartile_spread  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

REPORTED = ("test_acc", "failed_frac")
# Two traced runs, so that their counts can be compared across processes.
TRACED_PAIRS = 2
COUNT_SUFFIXES = ("calls_per_epoch", "trials_per_epoch", "iters_per_epoch",
                  "converged_frac", "accept_ratio")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    run = {"workload": workload, "seed": seed, "trace": trace,
           "exit": proc.returncode, "metrics": {}, "notes": []}
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            run["metrics"][name] = {"value": float(value), "unit": unit}
        elif line.startswith("env "):
            run["env"] = json.loads(line[4:])
        elif line.startswith("fingerprint "):
            run["fingerprint"] = line.split()[1]
        elif not line.startswith(("{", "workload ")):
            run["notes"].append(line)
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        run.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    else:
        run["correct"] = False
    if proc.returncode != 0:
        run["stderr_tail"] = proc.stderr.splitlines()[-20:]
    return run


def summarize(workload: str, runs: list, pairs: list, bounds: dict) -> dict:
    """``pairs`` holds (untraced, traced) runs made back to back."""
    paired = [r for pair in pairs for r in pair]
    traced = [t for _, t in pairs]
    problems = [f"{r['workload']} seed {r['seed']} trace {r['trace']}: exit {r['exit']}, "
                f"correct={r['correct']}" for r in runs + paired if r["exit"] != 0 or not r["correct"]]
    good = [r for r in runs if r["exit"] == 0]
    summary = {}
    names = [n for n in bounds] + list(REPORTED)
    for name in names:
        values = [r["metrics"][name]["value"] for r in good if name in r["metrics"]]
        if values:
            summary[name] = {**quartile_spread(values), "n": len(values),
                             "unit": good[0]["metrics"][name]["unit"], "bound": bounds.get(name)}
    out = {"workload": workload, "end_to_end": summary, "problems": problems}
    if not good:
        return out

    for u, t in pairs:
        if u.get("fingerprint") != t.get("fingerprint"):
            problems.append(f"{workload}: traced run fingerprint differs from the untraced run "
                            f"of seed {t['seed']}")
    base = traced[0]["metrics"]
    for r in traced[1:]:
        for name, m in base.items():
            if name.endswith(COUNT_SUFFIXES) and r["metrics"].get(name) != m:
                problems.append(f"{workload}: count {name} differs between traced runs: "
                                f"{m['value']} vs {r['metrics'].get(name, {}).get('value')}")
    per_layer = {}
    for name, unit, _ in PER_LAYER:
        values = [r["metrics"][name]["value"] for r in traced if name in r["metrics"]]
        if values:
            per_layer[name] = {**quartile_spread(values), "unit": unit}
    out["per_layer"] = per_layer
    shares = [t["metrics"]["trace.epoch_s_p50"]["value"] / u["metrics"]["epoch_s_p50"]["value"] - 1.0
              for u, t in pairs if u["exit"] == 0 and t["exit"] == 0]
    if shares:
        out["tracing_overhead"] = {"share": statistics.median(shares), "pair_shares": shares}
    return out


def print_summary(s: dict) -> None:
    print(f"\n== {s['workload']}")
    for name, v in s["end_to_end"].items():
        bound = v["bound"]
        flag = "" if bound is None else ("  ** over bound" if v["spread"] > bound
                                         else "  * over bound/3" if v["spread"] > bound / 3 else "")
        bound_txt = "-" if bound is None else f"{bound:g}"
        print(f"  {name:22s} {v['median']:.6g} {v['unit']:6s} q1 {v['q1']:.6g} q3 {v['q3']:.6g} "
              f"spread {v['spread']:.4f} (bound {bound_txt}, n={v['n']}){flag}")
    for name, v in s.get("per_layer", {}).items():
        print(f"  {name:46s} {v['median']:.6g} {v['unit']}")
    if "tracing_overhead" in s:
        o = s["tracing_overhead"]
        pairs = ", ".join(f"{100 * x:+.1f}%" for x in o["pair_shares"])
        print(f"  tracing overhead {100 * o['share']:+.2f}% of epoch_s_p50 "
              f"(median over back-to-back pairs: {pairs})")
    for p in s["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="Run every admmnet benchmark workload.")
    p.add_argument("--workloads", default=",".join(names),
                   help="comma-separated; defaults to the workloads in BENCHMARK.json")
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    p.add_argument("--out", default=None, help="write the full record here as JSON")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    record = {"seeds": seeds, "seconds": seconds, "workloads": []}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: exit {runs[-1]['exit']}", file=sys.stderr)
        pairs = [(run_once(workload, seeds[0], seconds, 0),
                  run_once(workload, seeds[0], seconds, 1)) for _ in range(TRACED_PAIRS)]
        s = summarize(workload, runs, pairs, bounds)
        print_summary(s)
        s["runs"] = runs
        s["pairs"] = [list(pair) for pair in pairs]
        record["workloads"].append(s)
        record.setdefault("env", runs[0].get("env"))
        failed |= bool(s["problems"])
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
