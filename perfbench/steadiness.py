"""Steadiness report: two interleaved sets of runs of one workload.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload serve-acm --runs 5

Runs ``perfbench/run.py`` ``2 x runs`` times, alternating set A and set
B (ABBA order, every run on its own seed), and prints for each
end-to-end metric both sets' medians, the gap by which B is worse than
A, each set's quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives them), the spread of all
runs pooled, and the metric's bound from ``BENCHMARK.json``.  A metric
is steady when every spread is below a third of its bound and the gap
is within it (``setup_s`` needs only the gap).  The report is also
written to ``.perfbench/steadiness-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run failed (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (default 5, 10 in all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    seed = args.first_seed
    for i in range(args.runs):
        for name in ("AB" if i % 2 == 0 else "BA"):
            start = time.perf_counter()
            result = one_run(args.workload, seed, seconds)
            print(f"set {name} seed {seed}: ok_frac "
                  f"{result['metrics']['ok_frac']['value']:.4f}, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
            sets[name].append(result)
            seed += 1

    rows, steady = [], True
    print(f"{args.workload}: {args.runs} + {args.runs} runs of {seconds:g} s")
    print(f"{'metric':<22} {'median A':>11} {'median B':>11} {'B worse':>8} "
          f"{'spread A':>9} {'spread B':>9} {'pooled':>8} {'bound':>6}  ok")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (med_b - med_a) / med_a if med_a else 0.0
        spreads = [spread(a), spread(b), spread(a + b)]
        ok = worse <= bound and (name == "setup_s"
                                 or max(spreads) < bound / 3)
        steady &= ok
        rows.append({"metric": name, "median_a": med_a, "median_b": med_b,
                     "b_worse": worse, "spread_a": spreads[0],
                     "spread_b": spreads[1], "spread_pooled": spreads[2],
                     "bound": bound, "steady": ok, "a": a, "b": b})
        print(f"{name:<22} {med_a:>11.5g} {med_b:>11.5g} {worse:>8.3f} "
              f"{spreads[0]:>9.3f} {spreads[1]:>9.3f} {spreads[2]:>8.3f} "
              f"{bound:>6.2f}  {'yes' if ok else 'NO'}")
    out = ROOT / ".perfbench" / f"steadiness-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "runs_per_set": args.runs, "rows": rows},
                              indent=2))
    print(f"{'steady' if steady else 'NOT steady'}; report in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
