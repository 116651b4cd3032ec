"""One fresh-interpreter set-up of a workload; prints ``ready`` when done.

``workloads.measure_setup`` times this script from process start to the
``ready`` line: interpreter start, ``import repro``, dataset load and the
supervision draw — plus, for ``serve-acm``, starting the daemon, adopting
the served model and answering one warm-up request.

Usage: ``python3 perfbench/setup_probe.py <workload>``
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(workload: str) -> int:
    import repro  # noqa: F401  (the import is part of what is timed)
    from repro.data import load_dataset

    from workloads import WORKLOADS, draw_supervision, seeded_walk_model

    cfg = WORKLOADS[workload]
    data = load_dataset(cfg["dataset"])
    draw_supervision(cfg["dataset"], seed=0)
    stage = None
    if cfg["serve"]["model"] == "seeded":
        from serving import ServeStage

        model = seeded_walk_model(data.graph.num_nodes, cfg["serve"], seed=0)
        stage = ServeStage(model, "setup-probe")
        request = {"model": "setup-probe", "n_walks": 32, "length": 10,
                   "seed": 0}
        if not stage.warm_up(request):
            stage.close()
            return 1
    print("ready", flush=True)
    if stage is not None:
        stage.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
