"""Benchmark of the FairGen pipeline, the baseline pipelines and HTTP serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fairgen-blog --seed 1 --seconds 30 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
is a separate run that wraps each layer's public calls, writes the spans
to ``.perfbench/trace-<workload>-s<seed>.json`` (readable by
``repro trace summarize``) and prints the per-layer metrics.  The last
line of standard output is the JSON result; the human-readable report
goes to standard error.  Workloads, their stage shares and the serve
request mixes are defined in ``perfbench/workloads.json``.

BLAS runs single-threaded (``OPENBLAS_NUM_THREADS=1`` and friends, set
here before numpy loads) on both sides of every comparison: two BLAS
threads on two cores made fit times spread more.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale self-test mode: smoke profile, "
                             "one set-up sample per round, short serve "
                             "window")
    args = parser.parse_args(argv)

    # The program is the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import repro  # noqa: F401

    from workloads import run_workload

    trace_path = None
    if args.trace:
        trace_path = str(ROOT / ".perfbench"
                         / f"trace-{args.workload}-s{args.seed}.json")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), tiny=args.tiny,
                          trace_path=trace_path)
    report = [f"{name:<28} {m['value']:>14.6g} {m['unit']}"
              for name, m in result["metrics"].items()]
    print("\n".join(report), file=sys.stderr)
    if trace_path:
        from repro.obs.trace import render_summary, summarize_trace

        print(render_summary(summarize_trace([trace_path])), file=sys.stderr)
    print(f"ok: {result['attempted'] - result['failed']} of "
          f"{result['attempted']} checked operations", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
