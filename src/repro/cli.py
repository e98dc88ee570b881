"""Command-line interface: decompose an edge-list file, or replay a stream.

Usage::

    python -m repro input.edges --h 2                 # print core indices
    python -m repro input.edges --h 3 --algorithm h-LB+UB --output cores.txt
    python -m repro input.edges --h 2 --summary       # only aggregate stats
    python -m repro input.edges --h 2 --workers 4 --executor process
    python -m repro --demo --h 2                      # run on a built-in demo graph
    python -m repro stream updates.txt --h 2          # replay an edge stream
    python -m repro stream updates.txt --graph input.edges --batch-size 32
    python -m repro serve input.edges --h 2 --port 8742   # online queries
    python -m repro index build input.edges --db g.khidx  # persistent index
    python -m repro index query g.khidx spectrum --v 3
    python -m repro index refresh g.khidx updates.txt
    python -m repro datasets export jazz jazz.edges       # stable fixtures
    python -m repro datasets fetch caHe                   # real SNAP graph
    python -m repro load big.edges --out big.khcsr        # out-of-core build
    python -m repro big.khcsr --h 2 --summary             # decompose it
    python -m repro doctor /data --json                   # reclaim crash debris

The input format is a plain edge list (one ``u v`` pair per line, ``#``/``%``
comments allowed — the SNAP convention) or a ``.khcsr`` CSR block file
built by the ``load`` subcommand (opened memory-mapped, so graphs larger
than RAM decompose without ever being expanded into dicts).  The output is
one ``vertex core`` pair per line, or a short summary with ``--summary``.

The ``load`` subcommand streams a large edge list into a ``.khcsr`` block
file with bounded memory (two-pass external-sort pipeline — see
``docs/scaling.md``); ``--json`` reports load statistics including the
process peak RSS, which the out-of-core benchmark asserts against.

The ``stream`` subcommand replays an edge-update stream (one ``op u v`` line
per update, ``op`` being ``+`` or ``-``) through the dynamic maintenance
engine (:class:`repro.dynamic.DynamicKHCore`), starting from an optional
base graph, and prints the final core indices plus maintenance statistics.

The ``serve`` subcommand (``python -m repro serve input.edges --h 2
--port 8742``) keeps a warm dynamic engine resident and answers
core-number / core-subgraph / spectrum / top-community queries over
HTTP/JSON while ``POST /update`` batches stream in — see
:mod:`repro.serve`.

The ``index`` subcommand family manages the persistent core-spectrum
index (:mod:`repro.index`): ``index build`` precomputes cores for an
h-range into an SQLite store, ``index query`` answers lookups straight
from it (JSON on stdout), ``index refresh`` applies an update stream
incrementally, and ``index stats`` reports store metadata.  The
``datasets`` subcommands list the registry and export byte-stable
edge-list fixtures.

The ``doctor`` subcommand sweeps crash debris: orphaned ``/dev/shm``
segments whose owning process died, ``.khcsr`` block files stuck in the
*building* state, and interrupted index builds — see
:mod:`repro.resilience.janitor` and ``docs/operations.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from contextlib import nullcontext
from typing import Hashable, Optional, Sequence

from repro.core import core_decomposition_with_report
from repro.core.decomposition import DICT_ALGORITHMS, resolve_algorithm
from repro.core.backends import resolved_backend_name
from repro.dynamic import DynamicKHCore, read_update_stream
from repro.errors import ReproError
from repro.graph import Graph, read_edge_list
from repro.graph.generators import relaxed_caveman_graph
from repro.graph.storage import BLOCK_SUFFIX
from repro.runtime import ExecutionContext


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the (default) decompose command."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Distance-generalized ((k,h)-core) decomposition of an edge list.",
        epilog="Use 'python -m repro stream --help' for the streaming "
               "replay mode, 'python -m repro serve --help' for the "
               "HTTP/JSON query service.",
    )
    parser.add_argument("input", nargs="?", help="edge-list file (u v per line)")
    parser.add_argument("--demo", action="store_true",
                        help="use a built-in demo graph instead of an input file")
    parser.add_argument("--h", type=int, default=2, dest="h",
                        help="distance threshold h (default: 2)")
    parser.add_argument("--algorithm", default="auto",
                        choices=("auto", "classic", "naive", "h-BZ", "h-LB", "h-LB+UB"),
                        help="decomposition algorithm (default: auto)")
    _add_backend_arguments(parser)
    parser.add_argument("--storage-dir", default=None,
                        help="directory for storage=mmap block files "
                             "(default: the system temp dir)")
    parser.add_argument("--partition-size", type=int, default=1,
                        help="partition size S for h-LB+UB (default: 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="workers for the bulk h-degree passes "
                             "(default: 1)")
    parser.add_argument("--executor", default="thread",
                        choices=("serial", "thread", "process"),
                        help="scheduler for the bulk h-degree passes: "
                             "serial, thread (GIL-bound), or process "
                             "(shared-memory multiprocessing; scales with "
                             "real cores)")
    parser.add_argument("--output", help="write 'vertex core' lines to this file")
    parser.add_argument("--summary", action="store_true",
                        help="print only aggregate statistics")
    parser.add_argument("--verbose", action="store_true",
                        help="print extra diagnostics (e.g. the resolved backend)")
    return parser


def build_stream_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``stream`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro stream",
        description="Replay an edge-update stream through the dynamic "
                    "(k,h)-core maintenance engine.",
    )
    parser.add_argument("updates",
                        help="update-stream file ('+ u v' / '- u v' per line)")
    parser.add_argument("--graph", dest="graph",
                        help="edge-list file with the initial graph "
                             "(default: start from an empty graph)")
    parser.add_argument("--h", type=int, default=2, dest="h",
                        help="distance threshold h (default: 2)")
    _add_backend_arguments(parser)
    parser.add_argument("--batch-size", type=int, default=1,
                        help="apply updates in batches of this size "
                             "(default: 1 = one maintenance round per update)")
    parser.add_argument("--fallback-ratio", type=float, default=None,
                        help="dirty-region fraction of |V| above which a "
                             "batch falls back to full recomputation "
                             "(default: engine default)")
    parser.add_argument("--output", help="write 'vertex core' lines to this file")
    parser.add_argument("--summary", action="store_true",
                        help="print only aggregate statistics")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-batch progress and the resolved backend")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve (k,h)-core queries over HTTP/JSON from a "
                    "resident dynamic maintenance engine.",
    )
    parser.add_argument("input", nargs="?",
                        help="edge-list file with the graph to load")
    parser.add_argument("--demo", action="store_true",
                        help="serve a built-in demo graph instead of an "
                             "input file")
    parser.add_argument("--h", type=int, default=2, dest="h",
                        help="distance threshold h (default: 2)")
    _add_backend_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8742,
                        help="TCP port; 0 binds an ephemeral port "
                             "(default: 8742)")
    parser.add_argument("--fallback-ratio", type=float, default=None,
                        help="dirty-region fraction of |V| above which an "
                             "update batch falls back to full recomputation "
                             "(default: engine default)")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="maximum updates accepted per POST /update "
                             "batch (default: 1024)")
    parser.add_argument("--index", dest="index_path", default=None,
                        help="attach a persistent core index (built with "
                             "'index build' from the same graph); spectrum "
                             "and off-h point queries are served from it "
                             "while the graph is unmodified")
    parser.add_argument("--workers", type=int, default=None,
                        help="workers for full-recompute bulk passes")
    parser.add_argument("--executor", default="thread",
                        choices=("serial", "thread", "process"),
                        help="scheduler for full-recompute bulk passes")
    parser.add_argument("--request-deadline", type=float, default=None,
                        help="per-request wall-clock budget in seconds; "
                             "slow reads get 408, slow handlers 503, both "
                             "with Retry-After (default: no deadline)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="update batches allowed to queue behind the "
                             "writer before new ones are shed with 503 "
                             "(default: 64)")
    parser.add_argument("--repeel-budget", type=float, default=None,
                        help="writer watchdog: an incremental re-peel "
                             "slower than this many seconds pins the "
                             "engine to full recomputes (default: off)")
    parser.add_argument("--grace", type=float, default=5.0,
                        help="seconds to wait for in-flight connections "
                             "to drain on SIGTERM/SIGINT (default: 5)")
    parser.add_argument("--verbose", action="store_true",
                        help="print the resolved backend and engine "
                             "configuration")
    return parser


def build_load_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``load`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro load",
        description="Stream an edge-list file into an on-disk CSR block "
                    "file (.khcsr) with bounded memory, ready for "
                    "memory-mapped decomposition.",
    )
    parser.add_argument("input", help="edge-list file (u v per line)")
    parser.add_argument("--out", default=None,
                        help="block file to write (default: <input>.khcsr)")
    parser.add_argument("--max-ram-bytes", type=int, default=None,
                        help="peak-RSS budget for the loader's working "
                             "state; smaller budgets spill more but the "
                             "output is byte-identical (default: 64 MiB)")
    parser.add_argument("--tmp-dir", default=None,
                        help="directory for build scratch files "
                             "(default: alongside the output)")
    parser.add_argument("--external-relabel", action="store_true",
                        help="force the fully external relabel path even "
                             "when the rank table would fit the budget")
    parser.add_argument("--json", action="store_true",
                        help="print load statistics as JSON on stdout "
                             "(includes the process peak RSS in KiB)")
    return parser


def load_main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro load``."""
    # Deferred import: the loader stack is only needed by this subcommand.
    import resource

    from repro.graph.stream_load import stream_load_with_stats

    parser = build_load_parser()
    args = parser.parse_args(list(argv))
    out_path = args.out or (args.input + BLOCK_SUFFIX)
    started = time.perf_counter()
    try:
        csr, stats = stream_load_with_stats(
            args.input, out_path=out_path,
            max_ram_bytes=args.max_ram_bytes, tmp_dir=args.tmp_dir,
            external_relabel=True if args.external_relabel else None)
        csr.close()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    if args.json:
        return _print_json({
            "out": out_path,
            "vertices": stats.vertices,
            "edges": stats.edges,
            "lines": stats.lines,
            "self_loops": stats.self_loops,
            "duplicate_edges": stats.duplicate_edges,
            "identity_labels": stats.identity_labels,
            "external_relabel": stats.external_relabel,
            "spill_runs": stats.spill_runs,
            "seconds": elapsed,
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
    print(f"# wrote {out_path}: {stats.vertices} vertices, "
          f"{stats.edges} edges in {elapsed:.3f}s "
          f"({stats.spill_runs} spill runs)", file=sys.stderr)
    return 0


def build_doctor_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``doctor`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro doctor",
        description="Reclaim crash debris: orphaned shared-memory "
                    "segments, .khcsr block files stuck in the building "
                    "state, and interrupted index builds.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to sweep for .khcsr / "
                             ".khidx debris (directories recurse)")
    parser.add_argument("--shm-dir", default=None,
                        help="shared-memory mount to sweep for orphaned "
                             "kh-core segments (default: /dev/shm when "
                             "present)")
    parser.add_argument("--min-age", type=float, default=60.0,
                        help="only reclaim artifacts older than this many "
                             "seconds, so in-progress builds are never "
                             "swept (default: 60)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be reclaimed without "
                             "deleting anything")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON on stdout")
    return parser


def doctor_main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro doctor``."""
    # Deferred import: the janitor pulls in the storage/sqlite stacks.
    from repro.resilience.janitor import run_doctor

    parser = build_doctor_parser()
    args = parser.parse_args(list(argv))
    try:
        report = run_doctor(args.paths, shm_dir=args.shm_dir,
                            min_age=args.min_age, apply=not args.dry_run)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        return _print_json(report.as_dict())
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(f"# scanned {report.segments_checked} shm segment(s), "
          f"{report.blocks_checked} block file(s), "
          f"{report.indexes_checked} index(es)", file=sys.stderr)
    print(f"# {verb} {len(report.reclaimed_segments)} segment(s), "
          f"{len(report.reclaimed_blocks)} block(s), "
          f"{len(report.reclaimed_indexes)} index(es); "
          f"recovered {len(report.recovered_indexes)} WAL(s)",
          file=sys.stderr)
    for path in (report.reclaimed_segments + report.reclaimed_blocks
                 + report.reclaimed_indexes):
        print(path)
    return 0


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "dict", "csr", "numpy", "native"),
                        help="graph backend for the generalized algorithms: "
                             "dict (reference), csr (flat-array, faster), "
                             "numpy (vectorized kernels; needs the optional "
                             "NumPy extra), native (compiled GIL-releasing "
                             "kernels; needs the optional Numba extra), or "
                             "auto (dict for non-integer vertex labels, "
                             "else native from 2048 vertices, numpy from "
                             "512, csr below)")
    parser.add_argument("--relabel", default=None,
                        choices=("none", "degree", "bfs"),
                        help="cache-locality vertex relabeling applied at "
                             "CSR build time (degree: hubs first, bfs: "
                             "neighbors clustered); results are unaffected, "
                             "only the internal index order changes")
    parser.add_argument("--storage", default="auto",
                        choices=("auto", "ram", "mmap"),
                        help="where the CSR snapshot arrays live: ram "
                             "(in-process), mmap (an on-disk block file, "
                             "for graphs larger than RAM), or auto (mmap "
                             "above the KH_CORE_MMAP_THRESHOLD payload "
                             "size, ram below)")


def _load_graph(args: argparse.Namespace, mutable: bool = False):
    """Load the graph named by ``args`` (demo, edge list, or block file).

    A ``.khcsr`` input (built by the ``load`` subcommand) is opened
    memory-mapped and wrapped in a read-only
    :class:`~repro.graph.views.FrozenGraphView` — decomposition and index
    builds run on it directly without expanding the graph into dicts.
    Commands that mutate the graph (``stream``, ``serve``) pass
    ``mutable=True`` and reject block files with a clear error.
    """
    if args.demo:
        return relaxed_caveman_graph(8, 8, 0.15, seed=0)
    if not args.input:
        raise ReproError("either an input file or --demo is required")
    if args.input.endswith(BLOCK_SUFFIX):
        if mutable:
            raise ReproError(
                f"{args.input}: CSR block files are read-only snapshots; "
                "this command needs a mutable graph — pass the original "
                "edge-list file instead")
        from repro.graph.storage import load_csr
        from repro.graph.views import FrozenGraphView

        return FrozenGraphView(load_csr(args.input))
    return read_edge_list(args.input)


def _emit_core_lines(core_index, output: Optional[str]) -> int:
    """Print or write ``vertex core`` lines; returns the process exit code."""
    lines = [f"{vertex} {core}" for vertex, core in
             sorted(core_index.items(), key=lambda item: repr(item[0]))]
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"# wrote {len(lines)} lines to {output}", file=sys.stderr)
    else:
        for line in lines:
            print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` (and the ``kh-core`` script).

    The ``stream``, ``serve``, ``index``, ``datasets`` and ``load``
    subcommands are
    dispatched on the first token rather than through argparse subparsers,
    because the default command's optional positional input would otherwise
    be ambiguous.  Consequence: an edge-list file literally named after a
    subcommand must be passed with a path prefix (``./stream``).
    """
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "stream":
        return stream_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "index":
        return index_main(argv[1:])
    if argv and argv[0] == "datasets":
        return datasets_main(argv[1:])
    if argv and argv[0] == "load":
        return load_main(argv[1:])
    if argv and argv[0] == "doctor":
        return doctor_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        graph = _load_graph(args)
        algorithm = resolve_algorithm(args.algorithm, args.h)
        if algorithm in DICT_ALGORITHMS:
            # classic / naive peel the dict graph: no engine to build.
            context = nullcontext()
        else:
            context = ExecutionContext(graph, backend=args.backend,
                                       executor=args.executor,
                                       num_workers=args.workers,
                                       relabel=args.relabel,
                                       storage=args.storage,
                                       storage_dir=args.storage_dir)
        with context as ctx:
            report = core_decomposition_with_report(
                graph, args.h, algorithm=algorithm,
                dataset_name=args.input or "demo",
                partition_size=args.partition_size, context=ctx)
            resilience = None if ctx is None else ctx.resilience
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    result = report.result
    print(f"# graph: {graph.num_vertices} vertices, {graph.num_edges} edges", file=sys.stderr)
    print(f"# algorithm: {result.algorithm}, h = {args.h}", file=sys.stderr)
    if args.verbose:
        print(f"# backend: {report.params['backend']} "
              f"(requested: {args.backend})", file=sys.stderr)
        print(f"# executor: {report.params['executor']}, "
              f"workers: {report.params['num_workers']}", file=sys.stderr)
        if resilience is not None:
            print(f"# resilience: {resilience.summary()}", file=sys.stderr)
    print(f"# time: {report.seconds:.3f}s, h-BFS visits: {report.visits}", file=sys.stderr)
    print(f"# h-degeneracy: {result.degeneracy}, distinct cores: {result.num_distinct_cores}",
          file=sys.stderr)

    if args.summary:
        sizes = result.core_sizes()
        for k in sorted(sizes):
            print(f"core {k}: {sizes[k]} vertices")
        return 0

    return _emit_core_lines(result.core_index, args.output)


def stream_main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro stream``."""
    parser = build_stream_parser()
    args = parser.parse_args(list(argv))
    try:
        if args.graph and args.graph.endswith(BLOCK_SUFFIX):
            raise ReproError(
                f"{args.graph}: CSR block files are read-only snapshots; "
                "stream replay needs a mutable graph — pass the original "
                "edge-list file instead")
        graph = read_edge_list(args.graph) if args.graph else Graph()
        updates = read_update_stream(args.updates)
        engine_kwargs = {}
        if args.fallback_ratio is not None:
            engine_kwargs["fallback_ratio"] = args.fallback_ratio
        backend = resolved_backend_name(graph, args.backend)
        engine = DynamicKHCore(graph, h=args.h, backend=backend,
                               relabel=args.relabel, storage=args.storage,
                               **engine_kwargs)
        if args.verbose:
            print(f"# backend: {backend} (requested: {args.backend})",
                  file=sys.stderr)
            print(f"# initial graph: {graph.num_vertices} vertices, "
                  f"{graph.num_edges} edges", file=sys.stderr)

        batch_size = max(1, args.batch_size)
        started = time.perf_counter()
        for offset in range(0, len(updates), batch_size):
            summary = engine.apply_batch(updates[offset:offset + batch_size])
            if args.verbose:
                print(f"# batch {offset // batch_size}: mode={summary.mode} "
                      f"applied={summary.applied} "
                      f"region={summary.region_size} "
                      f"cores_changed={summary.cores_changed}",
                      file=sys.stderr)
        elapsed = time.perf_counter() - started
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    stats = engine.stats
    print(f"# replayed {stats.updates_applied} updates "
          f"({stats.noop_updates} no-ops) in {elapsed:.3f}s", file=sys.stderr)
    print(f"# final graph: {engine.graph.num_vertices} vertices, "
          f"{engine.graph.num_edges} edges", file=sys.stderr)
    print(f"# maintenance: {stats.incremental_repeels} incremental, "
          f"{stats.full_recomputes} full recomputations, "
          f"peak dirty universe {stats.peak_universe_size}", file=sys.stderr)

    if args.summary:
        sizes = engine.decomposition().core_sizes()
        for k in sorted(sizes):
            print(f"core {k}: {sizes[k]} vertices")
        return 0
    return _emit_core_lines(engine.core_numbers(), args.output)


def serve_main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro serve``."""
    # Deferred import: the serve package pulls in asyncio plumbing the
    # batch commands never need.
    from repro.serve import CoreService, run_app

    parser = build_serve_parser()
    args = parser.parse_args(list(argv))
    try:
        graph = _load_graph(args, mutable=True)
        backend = resolved_backend_name(graph, args.backend)
        service_kwargs = {}
        if args.max_batch is not None:
            service_kwargs["max_batch"] = args.max_batch
        if args.index_path is not None:
            service_kwargs["index_path"] = args.index_path
        if args.max_pending is not None:
            service_kwargs["max_pending"] = args.max_pending
        if args.repeel_budget is not None:
            service_kwargs["repeel_budget"] = args.repeel_budget
        service = CoreService(graph, h=args.h, backend=backend,
                              relabel=args.relabel, storage=args.storage,
                              fallback_ratio=args.fallback_ratio,
                              executor=args.executor,
                              num_workers=args.workers,
                              name=args.input or "demo",
                              **service_kwargs)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.verbose:
        print(f"# backend: {backend} (requested: {args.backend})",
              file=sys.stderr)
        print(f"# graph: {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges, h = {args.h}", file=sys.stderr)

    def announce(server) -> None:
        print(f"# serving on http://{server.host}:{server.port}",
              file=sys.stderr, flush=True)

    try:
        drained = asyncio.run(run_app(
            service, host=args.host, port=args.port, ready=announce,
            request_deadline=args.request_deadline,
            install_signal_handlers=True, grace=args.grace))
        if drained is not None:
            # Signal-triggered graceful shutdown: the drain completed and a
            # final epoch was published before we got here.
            snapshot = service.snapshot
            print(f"# drained {drained} in-flight connection(s); final "
                  f"epoch generation={snapshot.generation}",
                  file=sys.stderr)
    except KeyboardInterrupt:
        print("# shutting down", file=sys.stderr)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        service.close()
    return 0


def build_index_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``index`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="python -m repro index",
        description="Manage a persistent (k,h)-core spectrum index: "
                    "precompute cores for an h-range into an SQLite store, "
                    "query it without recomputation, and keep it fresh "
                    "under edge updates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build", help="precompute the core spectrum of a graph into a store")
    build.add_argument("input", nargs="?",
                       help="edge-list file with the graph to index")
    build.add_argument("--demo", action="store_true",
                       help="index a built-in demo graph instead of a file")
    build.add_argument("--db", dest="db", default=None,
                       help="index file to create "
                            "(default: <input>.khidx)")
    build.add_argument("--h-values", default="1,2,3",
                       help="comma-separated distance thresholds to "
                            "persist (default: 1,2,3)")
    build.add_argument("--force", action="store_true",
                       help="overwrite an existing index file")
    build.add_argument("--source", default=None,
                       help="free-form provenance string stored in the "
                            "index metadata (default: the input path)")

    query = commands.add_parser(
        "query", help="answer a core query from the index (JSON on stdout)")
    query.add_argument("db", help="index file built with 'index build'")
    query.add_argument("what",
                       choices=("core-number", "spectrum", "threshold",
                                "core", "shell", "sizes", "order", "diff"),
                       help="query kind: core-number (--v --h), "
                            "spectrum (--v), threshold (--v --k), "
                            "core/shell (--k --h), sizes/order (--h), "
                            "diff (--from --to [--h])")
    query.add_argument("--v", dest="vertex", default=None,
                       help="vertex label (parsed as int when possible)")
    query.add_argument("--k", dest="k", type=int, default=None,
                       help="core index k")
    query.add_argument("--h", dest="h", type=int, default=None,
                       help="distance threshold h")
    query.add_argument("--from", dest="epoch_a", type=int, default=None,
                       help="diff window start epoch (exclusive)")
    query.add_argument("--to", dest="epoch_b", type=int, default=None,
                       help="diff window end epoch (inclusive; default: "
                            "the current epoch)")

    refresh = commands.add_parser(
        "refresh", help="apply an edge-update stream to the index "
                        "incrementally")
    refresh.add_argument("db", help="index file built with 'index build'")
    refresh.add_argument("updates",
                         help="update-stream file ('+ u v' / '- u v' per "
                              "line)")
    refresh.add_argument("--batch-size", type=int, default=64,
                         help="refresh in batches of this many updates "
                              "(default: 64)")
    refresh.add_argument("--staleness-ratio", type=float, default=None,
                         help="dirty-row fraction of the store above which "
                              "a batch triggers a full rebuild "
                              "(default: 0.5)")
    refresh.add_argument("--backend", default="auto",
                         choices=("auto", "dict", "csr", "numpy", "native"),
                         help="graph backend for the maintenance engines")
    refresh.add_argument("--fallback-ratio", type=float, default=None,
                         help="per-engine dirty-region fraction above which "
                              "a batch falls back to full recomputation")
    refresh.add_argument("--verbose", action="store_true",
                         help="print one line per refreshed batch")

    stats = commands.add_parser(
        "stats", help="print index metadata and row counts as JSON")
    stats.add_argument("db", help="index file built with 'index build'")
    stats.add_argument("--verify", action="store_true",
                       help="also run the deep row-scan checksum "
                            "verification")
    return parser


def build_datasets_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``datasets`` subcommand family."""
    parser = argparse.ArgumentParser(
        prog="python -m repro datasets",
        description="List the synthetic stand-in datasets, export them as "
                    "deterministic edge-list files, and fetch the paper's "
                    "real public graphs into a local cache.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="print the registered dataset names")

    export = commands.add_parser(
        "export", help="write a dataset as a byte-stable sorted edge list")
    export.add_argument("name", help="dataset name (see 'datasets list')")
    export.add_argument("output", help="edge-list file to write")
    export.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"),
                        help="dataset scale (default: small)")
    export.add_argument("--seed", type=int, default=0,
                        help="generator seed (default: 0)")

    fetch = commands.add_parser(
        "fetch", help="download (once) a real public dataset and print the "
                      "cached edge-list path")
    fetch.add_argument("name",
                       help="real dataset name (see 'datasets list')")
    fetch.add_argument("--cache-dir", default=None,
                       help="cache root (default: KH_CORE_DATA_DIR or "
                            "~/.cache/kh-core-datasets)")
    fetch.add_argument("--refresh", action="store_true",
                       help="re-download even when a cached archive exists "
                            "(still checksum-verified)")
    fetch.add_argument("--normalize", action="store_true",
                       help="also write the canonical sorted form and "
                            "print its path (materializes the graph in "
                            "RAM; for small/medium datasets)")
    return parser


def _parse_cli_vertex(text: str) -> Hashable:
    """Vertex labels on the command line: int when possible, else str.

    Mirrors :func:`repro.graph.io.read_edge_list`, so labels given with
    ``--v`` match labels read from an edge-list file.
    """
    try:
        return int(text)
    except ValueError:
        return text


def _print_json(payload: object) -> int:
    print(json.dumps(payload, indent=2, sort_keys=True, default=repr))
    return 0


def index_main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro index``."""
    # Deferred import: sqlite plumbing the batch commands never need.
    from repro.index import CoreIndexReader, build_index, refresh_index

    parser = build_index_parser()
    args = parser.parse_args(list(argv))
    try:
        if args.command == "build":
            graph = _load_graph(args)
            db = args.db or ((args.input or "demo") + ".khidx")
            try:
                h_values = tuple(int(tok) for tok in
                                 args.h_values.split(",") if tok.strip())
            except ValueError:
                raise ReproError(
                    f"--h-values must be comma-separated integers, got "
                    f"{args.h_values!r}")
            report = build_index(
                graph, db, h_values=h_values,
                source=args.source or args.input or "demo",
                overwrite=args.force)
            return _print_json(report.as_dict())

        if args.command == "query":
            with CoreIndexReader(args.db) as reader:
                return _print_json(_run_index_query(reader, args))

        if args.command == "refresh":
            updates = read_update_stream(args.updates)
            refresh_kwargs = {}
            if args.staleness_ratio is not None:
                refresh_kwargs["staleness_ratio"] = args.staleness_ratio
            summaries = refresh_index(
                args.db, updates, batch_size=args.batch_size,
                backend=args.backend,
                fallback_ratio=args.fallback_ratio, **refresh_kwargs)
            if args.verbose:
                for i, summary in enumerate(summaries):
                    print(f"# batch {i}: mode={summary.mode} "
                          f"epoch={summary.epoch} "
                          f"applied={summary.applied} "
                          f"dirty_rows={summary.dirty_rows}",
                          file=sys.stderr)
            return _print_json([s.as_dict() for s in summaries])

        # args.command == "stats"
        with CoreIndexReader(args.db, verify=args.verify) as reader:
            return _print_json(reader.stats())
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_index_query(reader, args: argparse.Namespace) -> object:
    """Dispatch one ``index query`` invocation to the reader method."""
    def need(name: str, value) -> object:
        if value is None:
            raise ReproError(
                f"'index query {args.what}' requires --{name}")
        return value

    if args.what == "core-number":
        vertex = _parse_cli_vertex(need("v", args.vertex))
        return {"vertex": args.vertex, "h": args.h,
                "core": reader.core_number(vertex, need("h", args.h))}
    if args.what == "spectrum":
        vertex = _parse_cli_vertex(need("v", args.vertex))
        return {"vertex": args.vertex,
                "spectrum": dict(reader.spectrum(vertex))}
    if args.what == "threshold":
        vertex = _parse_cli_vertex(need("v", args.vertex))
        return {"vertex": args.vertex, "k": args.k,
                "min_h": reader.membership_threshold(vertex,
                                                     need("k", args.k))}
    if args.what == "core":
        members = reader.core_members(need("k", args.k), need("h", args.h))
        return {"k": args.k, "h": args.h, "size": len(members),
                "members": members}
    if args.what == "shell":
        members = reader.shell(need("k", args.k), need("h", args.h))
        return {"k": args.k, "h": args.h, "size": len(members),
                "members": members}
    if args.what == "sizes":
        return {"h": args.h, "sizes": reader.core_sizes(need("h", args.h)),
                "degeneracy": reader.degeneracy(args.h)}
    if args.what == "order":
        return {"h": args.h,
                "order": reader.removal_order(need("h", args.h))}
    # args.what == "diff"
    epoch_b = args.epoch_b if args.epoch_b is not None else reader.current_epoch
    changes = reader.diff(need("from", args.epoch_a), epoch_b, h=args.h)
    return {"from": args.epoch_a, "to": epoch_b, "h": args.h,
            "changes": {repr(v): {"old": old, "new": new}
                        for v, (old, new) in sorted(changes.items(),
                                                    key=lambda kv: repr(kv[0]))}}


def datasets_main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro datasets``."""
    from repro.datasets import (
        REAL_DATASET_NAMES,
        available_datasets,
        dataset_spec,
        export_edge_list,
        fetch_dataset,
    )

    parser = build_datasets_parser()
    args = parser.parse_args(list(argv))
    try:
        if args.command == "list":
            for name in available_datasets():
                spec = dataset_spec(name)
                real = "[real]" if name in REAL_DATASET_NAMES else ""
                print(f"{name:6s} {spec.family:14s} "
                      f"{spec.description} {real}".rstrip())
            return 0
        if args.command == "fetch":
            path = fetch_dataset(args.name, cache_dir=args.cache_dir,
                                 refresh=args.refresh,
                                 normalize=args.normalize)
            print(path)
            return 0
        # args.command == "export"
        graph = export_edge_list(args.name, args.output, scale=args.scale,
                                 seed=args.seed)
        print(f"# wrote {args.output}: {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges", file=sys.stderr)
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
