"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload default-ba --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the library's layer boundaries (see ``spans.py``),
prints the per-layer metrics and writes a Chrome trace-event file under
``.bench_build/perfbench/``.  The metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import platform
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("default-ba", "default-road", "hlbub-process",
                  "serve-mixed")


def environment(seed: int) -> dict:
    numpy_version = None
    if importlib.util.find_spec("numpy") is not None:
        import numpy

        numpy_version = numpy.__version__
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba,
        "nproc": os.cpu_count(),
        "seed": seed,
        "native_engine": ("measured wherever auto selects it" if numba
                          else "unmeasured (Numba is not installed)"),
    }


def stop_children(grace: float = 30.0) -> None:
    """Wait for every process the run started, so none outlives it.

    Process-pool workers the library shut down without waiting are joined
    (killed after ``grace`` seconds); then multiprocessing's resource
    tracker, which shared-memory blocks start and which otherwise exits
    only some time after this process, is stopped and reaped.
    """
    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the library sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Temp files of the library and its worker processes stay in the
    # checkout.
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), OUT_DIR)
    finally:
        stop_children()

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(outcome.metrics[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    attempted = max(outcome.attempted, 1)
    print(f"# {args.workload} seed={args.seed} "
          f"error_rate={outcome.failed / attempted:.6g} "
          f"({outcome.failed} failed of {outcome.attempted} checked)")
    for key, value in outcome.report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
