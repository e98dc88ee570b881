"""Importable benchmark helpers.

Lives in its own module (rather than ``conftest.py``) so benchmark files can
``from bench_utils import run_once`` without relying on the ambiguous
``conftest`` module name, which collides with ``tests/conftest.py`` in a
whole-repo pytest run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, Optional


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment driver exactly once under the benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


#: Environment variable overriding where :func:`write_bench_json` puts its
#: artifact (CI points it at the workspace root so the upload step finds it).
BENCH_JSON_DIR_ENV_VAR = "KH_CORE_BENCH_JSON_DIR"


def write_bench_json(filename: str, payload: Dict[str, object],
                     directory: Optional[str] = None) -> str:
    """Write a machine-readable benchmark artifact; returns its path.

    ``payload`` is augmented with a reproducibility header (timestamp,
    interpreter, platform, CPU count, quick-mode flag) so a perf trajectory
    assembled from successive artifacts can normalize across environments.
    The directory defaults to a ``kh-core-bench`` folder under the system
    temp dir, so a plain ``pytest`` run never rewrites the committed
    ``BENCH_PR*.json`` files; :data:`BENCH_JSON_DIR_ENV_VAR` overrides it.

    Repeated calls for the same file *merge* top-level keys instead of
    overwriting, so several benchmark tests can contribute sections to one
    artifact regardless of execution order.
    """
    directory = directory or os.environ.get(BENCH_JSON_DIR_ENV_VAR)
    if not directory:
        directory = os.path.join(tempfile.gettempdir(), "kh-core-bench")
        os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    record: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = {}
    record.update(payload)
    record["meta"] = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick_mode": os.environ.get("KH_CORE_BENCH_QUICK", "")
        not in ("", "0"),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
