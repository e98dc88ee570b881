"""The benchmark's workloads: default decomposition calls and the query service.

Every workload builds its inputs from the run's seed (:mod:`inputs`),
measures for the requested number of seconds, checks every output and
returns an :class:`Outcome` holding both metric sets: the end-to-end
metrics (measured with tracing off) or, for a traced run, the per-layer
metrics (see :mod:`spans`).  ``run.py`` picks the set the run asked for.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import inspect
import json
import random
import resource
import statistics
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import inputs
from spans import LAYERS, Tracer

import repro.core.decomposition as decomposition
from repro.core.backends import resolved_backend_name
from repro.graph.graph import Graph
from repro.instrumentation import Counters
from repro.runtime.context import ExecutionContext
from repro.serve.app import CoreServer
from repro.serve.service import CoreService

#: The correctness reference: a path ``auto`` never takes (baseline h-BZ on
#: the interpreted CSR engine, no pool).
REFERENCE = {"algorithm": "h-BZ", "backend": "csr", "executor": "serial"}

#: Explicit serial cells the default call is compared against
#: (``runtime.auto_gap``).
CELLS = [(algorithm, backend) for algorithm in ("h-LB", "h-LB+UB")
         for backend in ("csr", "numpy")]

#: Set-up samples taken before the first call; their median, together with
#: one sample per measured call, is reported.
SETUP_SAMPLES = 5

#: A service start-up is sampled only before the traffic, so more often.
SERVE_SETUP_SAMPLES = 9

#: Default calls timed on the serve workload's final graph (~0.1 s each).
SERVE_DECOMPOSE_CALLS = 41

#: Closed-loop clients of the serve workload: one per vCPU of the 2-vCPU
#: machines the workload is sized for, fixed so runs stay comparable.
SERVE_CLIENTS = 2

#: Request mix of the serve workload (LDBC SIGMOD-2014 contest analysis),
#: per block of 50 requests: 70% point lookups, 20% community queries
#: (half ``/core``, half ``/top_communities``), 2% analytics (``/spectrum``
#: and ``/cores`` on alternate blocks), 8% writes.  Each client shuffles
#: every block, so the proportions hold exactly in every run.
BLOCK = ["point"] * 35 + ["core"] * 5 + ["communities"] * 5 \
    + ["analytics"] + ["write"] * 4

#: A client deletes its oldest insert once it holds this many.
MAX_OUTSTANDING = 3


@dataclass
class Outcome:
    """Checks made, failures seen, and every metric the run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


@dataclass(frozen=True)
class DecomposeSpec:
    make_edges: Callable[[random.Random], List[inputs.Edge]]
    h: int
    kwargs: Dict[str, object]
    #: Graphs generated per run; calls cycle through them, so a run's median
    #: does not hang on one random instance.
    instances: int


@dataclass(frozen=True)
class ServeSpec:
    make_edges: Callable[[random.Random], List[inputs.Edge]]
    h: int


WORKLOADS = {
    "default-ba": DecomposeSpec(
        lambda rng: inputs.barabasi_albert(5000, 3, rng), h=2, kwargs={},
        instances=4),
    "default-road": DecomposeSpec(
        lambda rng: inputs.road_grid(60, 60, rng), h=3, kwargs={},
        instances=8),
    "hlbub-process": DecomposeSpec(
        lambda rng: inputs.powerlaw_cluster(4000, 3, 0.3, rng), h=2,
        kwargs={"algorithm": "h-LB+UB", "executor": "process",
                "num_workers": 2},
        instances=3),
    "serve-mixed": ServeSpec(lambda rng: inputs.road_grid(30, 30, rng), h=2),
}


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values: List[float], wanted: float) -> Tuple[float, float]:
    """``(percentile, value)``: ``wanted``, or the highest percentile that
    still has at least ten samples beyond it."""
    n = len(values)
    p = min(wanted, 100.0 * (n - 10) / n) if n > 10 else 0.0
    if p <= 0:
        return 0.0, max(values) if values else 0.0
    return p, percentile(values, p)


def timed_call(graph: Graph, h: int, **kwargs) -> Tuple[float, dict, object]:
    """One public decomposition call after a full collection, so garbage
    left by earlier calls is not collected inside this one's timing."""
    gc.collect()
    started = perf_counter()
    result = decomposition.core_decomposition(graph, h, **kwargs)
    return perf_counter() - started, result.core_index, result


def reference_cores(graph: Graph, h: int) -> dict:
    return decomposition.core_decomposition(graph, h, **REFERENCE).core_index


def resolved_executor(kwargs: Dict[str, object]) -> str:
    parameter = inspect.signature(decomposition.core_decomposition) \
        .parameters["executor"]
    return str(kwargs.get("executor", parameter.default))


def auto_gap(graph: Graph, h: int, kwargs: Dict[str, object],
             outcome: Outcome, expected: dict) -> Tuple[float, str]:
    """The workload's call over the best explicit serial cell.

    All are timed back to back on one graph, each up to three times (fewer
    once it has used 1.5 s), so a slow spell of the machine cannot land on
    one side only.  Returns the ratio and the best cell's name.
    """
    def median_time(**call_kwargs) -> float:
        samples: List[float] = []
        while len(samples) < 3 and (not samples or sum(samples) < 1.5):
            elapsed, cores, _ = timed_call(graph, h, **call_kwargs)
            outcome.check(cores == expected)
            samples.append(elapsed)
        return statistics.median(samples)

    cells = {f"{algorithm}/{backend}/serial": median_time(
        algorithm=algorithm, backend=backend, executor="serial")
        for algorithm, backend in CELLS}
    best = min(cells, key=cells.get)
    return median_time(**kwargs) / cells[best], best


def base_per_layer() -> Dict[str, float]:
    """Every per-layer metric at zero: a layer a workload never enters
    reports no work."""
    names = [
        "trace.op_s", "trace.overhead_s",
        "graph.csr_build_share",
        "runtime.resolve_share", "runtime.auto_gap",
        "runtime.unattributed_share",
        "traversal.single_bfs_share", "traversal.single_bfs_calls",
        "traversal.bulk_share", "traversal.bfs_calls",
        "traversal.visits_per_vertex",
        "bounds.lb_share", "bounds.ub_share", "bounds.improve_lb_share",
        "bounds.improve_lb_calls", "bounds.improve_lb_bfs_per_vertex",
        "bounds.survivor_ratio",
        "peeling.share", "peeling.hdegree_computations",
        "peeling.decrements", "peeling.bucket_moves",
        "parallel.bulk_share", "parallel.bulk_calls", "parallel.speedup",
        "resilience.retries", "resilience.pool_rebuilds",
        "resilience.downgrades",
        "dynamic.apply_share", "dynamic.incremental_share",
        "dynamic.full_recomputes", "dynamic.vertices_repeeled",
        "serve.read_overhead_share", "serve.update_wait_share",
        "serve.epochs",
    ]
    names += [f"{layer}.self_share" for layer in LAYERS]
    return {name: 0.0 for name in names}


def outermost(spans, names) -> list:
    """Spans named in ``names`` that are not nested in another of them."""
    picked = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and parent.name not in names:
            parent = parent.parent
        if parent is None:
            picked.append(span)
    return picked


def layer_metrics(tracer: Tracer, op_name: str, n_vertices: int,
                  resilience_before: Dict[int, Tuple[int, int, int]]
                  ) -> Dict[str, float]:
    """Per-layer metrics over the ops named ``op_name``.

    Times are shares of the ops' total traced time; counts are per op.
    Only spans inside an op count, so work outside the measured operations
    (a read on the event loop, say) never leaks into a phase share.
    """
    ops = tracer.named(op_name)
    n_ops = len(ops)
    op_total = sum(op.duration for op in ops)
    inside = []
    for span in tracer.spans:
        top = span
        while top.parent is not None:
            top = top.parent
        if top.name == op_name:
            inside.append(span)

    def share(*names: str) -> float:
        return sum(s.duration for s in outermost(inside, names)) / op_total

    m: Dict[str, float] = {}
    m["trace.op_s"] = op_total / n_ops
    single_s = sum(s.leaf_s for s in inside if not s.in_bulk)
    single_n = sum(s.leaf_n for s in inside if not s.in_bulk)
    self_times = {layer: 0.0 for layer in LAYERS}
    for span in inside:
        self_times[span.layer] += span.self_time
        self_times["traversal"] += span.leaf_s
    for layer, seconds in self_times.items():
        m[f"{layer}.self_share"] = seconds / op_total
    m["graph.csr_build_share"] = share("CSRGraph.from_graph",
                                       "CSRGraph.rebuilt")
    m["runtime.resolve_share"] = share("resolve_engine")
    m["runtime.unattributed_share"] = sum(
        s.self_time for s in inside
        if s.name == "core_decomposition") / op_total
    m["traversal.single_bfs_share"] = single_s / op_total
    m["traversal.single_bfs_calls"] = single_n / n_ops
    m["traversal.bulk_share"] = share("CSREngine.bulk_h_degrees")
    m["traversal.bfs_calls"] = sum(tracer.bfs_calls(op) for op in ops) / n_ops
    m["traversal.visits_per_vertex"] = (
        sum(tracer.visits(op) for op in ops) / n_ops / n_vertices)
    m["bounds.lb_share"] = share("engine_lb1", "engine_lb2")
    m["bounds.ub_share"] = share("engine_upper_bound")
    m["bounds.improve_lb_share"] = share("engine_improve_lb")
    improve = [s for s in inside if s.name == "engine_improve_lb"]
    m["bounds.improve_lb_calls"] = len(improve) / n_ops
    m["bounds.improve_lb_bfs_per_vertex"] = (
        sum(tracer.bfs_calls(s) for s in improve) / n_ops / n_vertices)
    candidates = sum(s.args["candidates"] for s in improve)
    m["bounds.survivor_ratio"] = (
        sum(s.args["survivors"] for s in improve) / candidates
        if candidates else 0.0)
    m["peeling.share"] = share("core_decomp")
    peels = [s for s in inside if s.name == "core_decomp"]
    for metric, counter in (("hdegree_computations", "hdegree_computations"),
                            ("decrements", "hdegree_decrements"),
                            ("bucket_moves", "bucket_moves")):
        m[f"peeling.{metric}"] = sum(s.counter_delta(counter)
                                     for s in peels) / n_ops
    pool_spans = ("SupervisedExecutor.bulk_h_degrees",
                  "SharedMemoryExecutor.bulk_h_degrees")
    m["parallel.bulk_share"] = share(*pool_spans)
    m["parallel.bulk_calls"] = len(outermost(inside, pool_spans)) / n_ops
    retries = rebuilds = downgrades = 0
    for engine in tracer.engines:
        before = resilience_before.get(id(engine), (0, 0, 0))
        report = engine.resilience
        retries += report.retries - before[0]
        rebuilds += report.pool_rebuilds - before[1]
        downgrades += len(report.downgrades) - before[2]
    m["resilience.retries"] = retries
    m["resilience.pool_rebuilds"] = rebuilds
    m["resilience.downgrades"] = downgrades
    return m


def resilience_state(tracer: Tracer) -> Dict[int, Tuple[int, int, int]]:
    return {id(e): (e.resilience.retries, e.resilience.pool_rebuilds,
                    len(e.resilience.downgrades)) for e in tracer.engines}


def write_trace(tracer: Tracer, out_dir: Path, name: str, seed: int,
                extra: Dict[str, object]) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    tracer.write_chrome_trace(str(path), {"workload": name, "seed": seed,
                                          "run_id": tracer.run_id, **extra})
    return str(path)


# --------------------------------------------------------------------- #
# decomposition workloads
# --------------------------------------------------------------------- #
def run_decompose(name: str, spec: DecomposeSpec, seed: int, seconds: float,
                  traced: bool, out_dir: Path) -> Outcome:
    outcome = Outcome()
    edge_lists = [spec.make_edges(random.Random(f"{name}/{seed}/{i}"))
                  for i in range(spec.instances)]

    # One set-up sample builds every instance's graph.  Samples are taken
    # before the calls and again after each measured call, so their median
    # does not hang on a noisy millisecond at start-up.
    setup: List[float] = []

    def build() -> List[Graph]:
        gc.collect()
        started = perf_counter()
        built = [Graph(edges) for edges in edge_lists]
        setup.append(perf_counter() - started)
        return built

    for _ in range(SETUP_SAMPLES):
        graphs = build()

    # (instance, cores) of every call, checked once the references exist.
    produced: List[Tuple[int, dict]] = []

    def measure(window: float, tracer: Optional[Tracer] = None
                ) -> List[Tuple[int, bool, float]]:
        """``(instance, traced, seconds)`` per call, cycling the instances.

        With a tracer every second call runs traced, on the same instance
        as the untraced call before it, so slow spells of the machine hit
        both halves alike and their difference is the tracing overhead.
        """
        step = 1 if tracer is None else 2
        samples: List[Tuple[int, bool, float]] = []
        deadline = perf_counter() + window
        while (len(samples) < spec.instances * step or len(samples) % step
               or perf_counter() < deadline):
            instance = len(samples) // step % spec.instances
            traced = len(samples) % step == 1
            if traced:
                tracer.install()
            try:
                elapsed, cores, _ = timed_call(graphs[instance], spec.h,
                                               **spec.kwargs)
            finally:
                if traced:
                    tracer.uninstall()
            produced.append((instance, cores))
            samples.append((instance, traced, elapsed))
            build()
        return samples

    # The first call pays one-time imports and lazy set-up; users pay it
    # once per process, so it is checked but not timed.
    _, cores, result = timed_call(graphs[0], spec.h, **spec.kwargs)
    produced.append((0, cores))
    outcome.report["resolved"] = {
        "algorithm": result.algorithm,
        "engine": resolved_backend_name(graphs[0], spec.kwargs.get(
            "backend", "auto")),
        "executor": resolved_executor(spec.kwargs),
    }

    if not traced:
        samples = measure(seconds)
        median = statistics.median(t for _, _, t in samples)
        outcome.metrics.update({
            "setup_s": statistics.median(setup),
            "decompose_s": median,
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": 1.0 / median,
            "op_p50_ms": median * 1e3,
        })
        outcome.report["decompose_samples"] = len(samples)
    else:
        tracer = Tracer(f"{name}-{seed}")
        samples = measure(seconds, tracer)
        per_layer = base_per_layer()
        per_layer.update(layer_metrics(tracer, "core_decomposition",
                                       graphs[0].num_vertices, {}))
        per_layer["trace.overhead_s"] = (
            statistics.median(t for _, on, t in samples if on)
            - statistics.median(t for _, on, t in samples if not on))
        outcome.metrics.update(per_layer)
        outcome.report["trace_file"] = write_trace(
            tracer, out_dir, name, seed, outcome.report["resolved"])

    references = [reference_cores(g, spec.h) for g in graphs]
    for instance, cores in produced:
        outcome.check(cores == references[instance])

    if traced:
        # The gap differs between random graphs of one family, so it is
        # the median over (up to) three instances.
        gaps = [auto_gap(graph, spec.h, spec.kwargs, outcome, reference)
                for graph, reference in list(zip(graphs, references))[:3]]
        outcome.metrics["runtime.auto_gap"] = statistics.median(
            gap for gap, _ in gaps)
        outcome.report["best_cells"] = [best for _, best in gaps]
        if spec.kwargs.get("executor") == "process":
            outcome.metrics["parallel.speedup"] = process_speedup(
                graphs[0], spec.h, int(spec.kwargs["num_workers"]), outcome)
    return outcome


def process_speedup(graph: Graph, h: int, workers: int,
                    outcome: Outcome) -> float:
    """Serial over process-pool time of the same full bulk h-degree pass."""
    with ExecutionContext(graph, executor="serial") as serial, \
            ExecutionContext(graph, executor="process",
                             num_workers=workers) as pooled:
        expected = serial.bulk_h_degrees(h)
        outcome.check(pooled.bulk_h_degrees(h) == expected)  # starts the pool
        timings = {}
        for label, ctx in (("serial", serial), ("process", pooled)):
            samples = []
            for _ in range(3):
                gc.collect()
                started = perf_counter()
                degrees = ctx.bulk_h_degrees(h)
                samples.append(perf_counter() - started)
                outcome.check(degrees == expected)
            timings[label] = statistics.median(samples)
    return timings["serial"] / timings["process"]


# --------------------------------------------------------------------- #
# serve workload
# --------------------------------------------------------------------- #
class ServerThread:
    """A :class:`CoreServer` on an ephemeral port, on its own event loop."""

    def __init__(self, service: CoreService) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run,
                                       name="perfbench-server")
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            CoreServer(service, port=0).start(), self.loop).result(timeout=60)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    @property
    def port(self) -> int:
        return self.server.port

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.drain(grace=5.0), self.loop).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        self.loop.close()


@dataclass
class Reply:
    kind: str
    seconds: float
    ok: bool


class Client:
    """One closed-loop caller on one keep-alive connection.

    Its request sequence comes from its own seeded generator; writes insert
    edges from its private pool of 2-3-hop pairs and later delete them
    (oldest first), so no two clients ever touch the same edge.
    """

    def __init__(self, port: int, rng: random.Random, vertices: List[int],
                 kmax: int, pairs: List[inputs.Edge], check) -> None:
        self.port = port
        self.rng = rng
        self.vertices = vertices
        self.kmax = kmax
        self.pairs = iter(pairs)
        self.check = check
        self.outstanding: deque = deque()
        self.block: List[str] = []
        self.blocks = 0
        self.replies: List[Reply] = []
        self.writes_ok = 0
        self.error: Optional[str] = None

    def next_request(self) -> Tuple[str, str, str, Optional[list]]:
        rng = self.rng
        if not self.block:
            self.block = list(BLOCK)
            rng.shuffle(self.block)
            self.blocks += 1
        kind = self.block.pop()
        v = self.vertices[rng.randrange(len(self.vertices))]
        k = rng.randint(1, self.kmax)
        if kind == "point":
            return "read", "GET", f"/core_number?v={v}&k={k}", None
        if kind == "core":
            return "read", "GET", f"/core?k={k}", None
        if kind == "communities":
            return "read", "GET", "/top_communities?limit=3", None
        if kind == "analytics":
            if self.blocks % 2:
                return "read", "GET", f"/spectrum?v={v}&hs=1,2", None
            return "read", "GET", "/cores", None
        if len(self.outstanding) >= MAX_OUTSTANDING:
            u, w = self.outstanding[0]
            return "update", "POST", "/update", ["-", u, w]
        u, w = next(self.pairs)
        return "update", "POST", "/update", ["+", u, w]

    def run(self, deadline: float) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            self.loop(conn, deadline)
        except (OSError, http.client.HTTPException) as exc:
            # A broken connection ends this client; the run reports it as a
            # failed operation.
            self.error = repr(exc)
        finally:
            conn.close()

    def loop(self, conn: http.client.HTTPConnection, deadline: float) -> None:
        while perf_counter() < deadline:
            kind, method, path, update = self.next_request()
            body = (json.dumps({"updates": [update]}).encode()
                    if update else None)
            started = perf_counter()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            elapsed = perf_counter() - started
            ok = self.judge(path, update, response.status, raw)
            self.replies.append(Reply(kind, elapsed, ok))

    def judge(self, path: str, update: Optional[list], status: int,
              raw: bytes) -> bool:
        try:
            payload = json.loads(raw)
            if update is None:
                return status == 200 and self.check(path, payload)
            applied = payload.get("applied")
        except (ValueError, KeyError, TypeError, AttributeError):
            return False  # a malformed reply is a failed operation
        op, u, w = update
        if op == "-" and status == 409:
            # A racing delete of an edge already gone: allowed, no change.
            self.outstanding.popleft()
            return True
        if status != 200 or applied != 1:
            return False
        self.writes_ok += 1
        if op == "+":
            self.outstanding.append((u, w))
        else:
            self.outstanding.popleft()
        return True


def read_checker(reference: dict, generation0: int):
    """Validate a read reply; exact against ``reference`` while the reply
    still comes from the initial epoch, structural afterwards."""

    def check(path: str, payload: dict) -> bool:
        initial = payload.get("generation") == generation0
        if path.startswith("/core_number"):
            params = dict(p.split("=") for p in path.split("?")[1].split("&"))
            v, k = int(params["v"]), int(params["k"])
            core = payload["core"]
            return (payload["v"] == v and payload["in_core"] == (core >= k)
                    and (not initial or core == reference[v]))
        if path.startswith("/core?"):
            k = int(path.split("=")[1])
            members = payload["vertices"]
            return payload["size"] == len(members) and (
                not initial
                or set(members) == {v for v, c in reference.items() if c >= k})
        if path.startswith("/top_communities"):
            return len(payload["communities"]) <= 3
        if path.startswith("/spectrum"):
            v = int(path.split("v=")[1].split("&")[0])
            spectrum = dict(payload["spectrum"])
            return spectrum[1] <= spectrum[2] and (
                not initial or spectrum[2] == reference[v])
        if path == "/cores":
            cores = dict(payload["cores"])
            return "checksum" in payload and (not initial or cores == reference)
        return False

    return check


def http_get(port: int, path: str) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def run_serve(name: str, spec: ServeSpec, seed: int, seconds: float,
              traced: bool, out_dir: Path) -> Outcome:
    outcome = Outcome()
    # The served graph is one fixed dataset, as in a deployment; the seed
    # drives the traffic (the clients' requests and the edges they write).
    # Seed-dependent graphs moved the share of writes that fall back to a
    # full recompute, and with it throughput, by ~10% between seeds.
    edges = spec.make_edges(random.Random(f"{name}/graph"))
    rng = random.Random(f"{name}/{seed}")
    vertices = sorted({v for edge in edges for v in edge})
    pairs = inputs.distant_pairs(edges, rng, 4000)
    pools = [pairs[i::SERVE_CLIENTS] for i in range(SERVE_CLIENTS)]

    tracer = Tracer(f"{name}-{seed}").install() if traced else None
    try:
        setup: List[float] = []
        for attempt in range(SERVE_SETUP_SAMPLES):
            gc.collect()
            started = perf_counter()
            service = CoreService(Graph(edges), h=spec.h)
            server = ServerThread(service)
            setup.append(perf_counter() - started)
            if attempt + 1 < SERVE_SETUP_SAMPLES:
                server.close()
                service.close()
        try:
            return serve_traffic(name, spec, seed, seconds, tracer, out_dir,
                                 outcome, edges, vertices, pools, service,
                                 server, statistics.median(setup))
        finally:
            server.close()
            service.close()
    finally:
        if tracer is not None:
            tracer.uninstall()


def serve_traffic(name, spec, seed, seconds, tracer, out_dir, outcome,
                  edges, vertices, pools, service, server,
                  setup_s) -> Outcome:
    reference = reference_cores(Graph(edges), spec.h)
    generation0 = service.snapshot.generation
    stats_before = service.engine.stats.as_dict()
    resilience_before: Dict[int, Tuple[int, int, int]] = {}
    if tracer is not None:
        # The service builds its engine without a counters sink; attach
        # one so peeling work is counted (same code path, live tallies).
        service.engine.counters = Counters()
        resilience_before = resilience_state(tracer)
        tracer.reset()

    check = read_checker(reference, generation0)
    kmax = max(reference.values())
    clients = [Client(server.port, random.Random(f"{name}/{seed}/client{i}"),
                      vertices, kmax, pools[i], check)
               for i in range(SERVE_CLIENTS)]
    gc.collect()
    started = perf_counter()
    deadline = started + seconds
    threads = [threading.Thread(target=c.run, args=(deadline,))
               for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = perf_counter() - started

    replies = [r for c in clients for r in c.replies]
    for reply in replies:
        outcome.check(reply.ok)
    for client in clients:
        outcome.check(client.error is None)
    errors = [client.error for client in clients if client.error]
    if errors:
        outcome.report["client_errors"] = errors
    reads = [r.seconds for r in replies if r.kind == "read"]
    updates = [r.seconds for r in replies if r.kind == "update"]

    # The final epoch must equal a from-scratch decomposition of the graph
    # the benchmark rebuilds from the updates it had acknowledged.
    final_edges = set(edges)
    for client in clients:
        final_edges.update(client.outstanding)
    final_graph = Graph(sorted(final_edges))
    final_reference = reference_cores(final_graph, spec.h)
    status, payload = http_get(server.port, "/cores")
    writes = sum(c.writes_ok for c in clients)
    outcome.check(status == 200 and dict(payload["cores"]) == final_reference
                  and payload["generation"] == generation0 + writes)
    stats = service.engine.stats.as_dict()

    if tracer is None:
        times = []
        for _ in range(SERVE_DECOMPOSE_CALLS):
            elapsed, cores, _ = timed_call(final_graph, spec.h)
            outcome.check(cores == final_reference)
            times.append(elapsed)
        read_p, read_tail = tail(reads, 99)
        update_p, update_tail = tail(updates, 90)
        outcome.metrics.update({
            "setup_s": setup_s,
            "decompose_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": len(replies) / window,
            "op_p50_ms": statistics.median(reads) * 1e3,
        })
        outcome.report.update({
            "serve_rps": len(replies) / window,
            "read_p50_ms": statistics.median(reads) * 1e3,
            f"read_p{read_p:g}_ms": read_tail * 1e3,
            "update_p50_ms": statistics.median(updates) * 1e3,
            f"update_p{update_p:g}_ms": update_tail * 1e3,
            "reads": len(reads), "updates": len(updates),
            "decompose_samples": len(times),
        })
        return outcome

    per_layer = base_per_layer()
    per_layer.update(layer_metrics(tracer, "CoreService.apply_updates_sync",
                                   final_graph.num_vertices,
                                   resilience_before))
    served = sum(s.duration for s in tracer.spans
                 if s.name.startswith("CoreService.query_"))
    applied = tracer.total("DynamicKHCore.apply_batch")
    incremental = stats["incremental_repeels"] - stats_before["incremental_repeels"]
    full = stats["full_recomputes"] - stats_before["full_recomputes"]
    per_layer.update({
        "serve.read_overhead_share": 1.0 - served / sum(reads),
        "serve.update_wait_share": 1.0 - applied / sum(updates),
        "serve.epochs": payload["generation"] - generation0,
        "dynamic.apply_share": applied / sum(updates),
        "dynamic.incremental_share": incremental / max(1, incremental + full),
        "dynamic.full_recomputes": full,
        "dynamic.vertices_repeeled": (
            (stats["vertices_repeeled"] - stats_before["vertices_repeeled"])
            / max(1, incremental)),
    })
    trace_file = write_trace(tracer, out_dir, name, seed, {})

    # Tracing overhead and auto_gap on the final graph's default call,
    # alternating untraced and traced calls.
    tracer.uninstall()
    times: List[float] = []
    traced_times: List[float] = []
    for _ in range(5):
        for samples in (times, traced_times):
            if samples is traced_times:
                tracer.install()
            try:
                elapsed, cores, _ = timed_call(final_graph, spec.h)
            finally:
                tracer.uninstall()
            outcome.check(cores == final_reference)
            samples.append(elapsed)
    per_layer["trace.overhead_s"] = (statistics.median(traced_times)
                                     - statistics.median(times))
    per_layer["runtime.auto_gap"], best = auto_gap(
        final_graph, spec.h, {}, outcome, final_reference)
    outcome.metrics.update(per_layer)
    outcome.report.update({"trace_file": trace_file, "best_cell": best})
    return outcome


def run(name: str, seed: int, seconds: float, traced: bool,
        out_dir: Path) -> Outcome:
    spec = WORKLOADS[name]
    runner = run_serve if isinstance(spec, ServeSpec) else run_decompose
    return runner(name, spec, seed, seconds, traced, out_dir)
