"""Unified facade for computing (k,h)-core decompositions.

:func:`core_decomposition` is the main entry point of the library: it
dispatches to the classic Batagelj–Zaveršnik peeling for ``h = 1`` and to one
of the three paper algorithms (``h-BZ``, ``h-LB``, ``h-LB+UB``) for
``h > 1``.  It can also return a full :class:`~repro.instrumentation.RunReport`
with timing and work counters, which is what the experiment harness consumes.

Execution concerns (engine resolution, executor + worker pool, counters,
teardown) live in one :class:`~repro.runtime.ExecutionContext`; the
``backend=`` / ``executor=`` / ``num_workers=`` keywords are a thin
constructor for a call-scoped context, and callers who want to amortize an
engine or worker pool across runs pass a long-lived ``context=`` instead.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import InvalidDistanceThresholdError, ParameterError
from repro.graph.graph import Graph
from repro.core.backends import BACKENDS, Engine
from repro.core.parallel import _validate_executor
from repro.core.classic import classic_core_decomposition
from repro.core.hbz import h_bz
from repro.core.hlb import h_lb
from repro.core.hlbub import h_lb_ub
from repro.core.naive import naive_core_decomposition
from repro.core.result import CoreDecomposition
from repro.instrumentation import Counters, NULL_COUNTERS, RunReport, Timer
from repro.runtime.context import ExecutionContext, scoped_context

#: Algorithms accepted by :func:`core_decomposition`.
ALGORITHMS = ("auto", "classic", "naive", "h-BZ", "h-LB", "h-LB+UB")

#: Algorithms that peel the dict graph directly and never use an engine.
DICT_ALGORITHMS = ("classic", "naive")


def resolve_algorithm(algorithm: str, h: int) -> str:
    """Return the concrete algorithm that ``algorithm`` names at distance ``h``.

    ``"auto"`` is one fixed rule: ``classic`` for ``h = 1`` and ``h-LB`` for
    every ``h >= 2``, whatever the graph size.  h-LB+UB stays selectable by
    name, but with the default ``S = 1`` it lost to h-LB on every measured
    graph (see ``docs/architecture.md``).  Other names pass through.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if algorithm != "auto":
        return algorithm
    return "classic" if h == 1 else "h-LB"


def core_decomposition(graph: Graph, h: int,
                       algorithm: str = "auto",
                       partition_size: int = 1,
                       counters: Optional[Counters] = None,
                       backend: Union[str, Engine] = "auto",
                       executor: str = "thread",
                       num_workers: Optional[int] = None,
                       context: Optional[ExecutionContext] = None
                       ) -> CoreDecomposition:
    """Compute the distance-generalized core decomposition of ``graph``.

    Parameters
    ----------
    graph:
        Undirected, unweighted input graph.
    h:
        Distance threshold.  ``h = 1`` gives the classic core decomposition.
    algorithm:
        One of ``"auto"`` (``classic`` for h = 1, ``h-LB`` for every
        h >= 2 — see :func:`resolve_algorithm`), ``"classic"`` (h = 1
        only), ``"naive"`` (reference oracle, tiny graphs only), ``"h-BZ"``,
        ``"h-LB"``, or ``"h-LB+UB"``.
    partition_size:
        Parameter ``S`` of h-LB+UB (ignored by the other algorithms).
    num_workers:
        Worker count for the bulk h-degree computations (§4.6; default 1).
    counters:
        Optional instrumentation sink filled with visit/recompute counts.
    executor:
        Scheduler for the bulk h-degree passes: ``"serial"``, ``"thread"``
        (the legacy pool — correct, but GIL-bound on CPython) or
        ``"process"`` (shared-memory multiprocessing over CSR arrays, the
        path that actually scales; see :mod:`repro.parallel`).  All
        executors produce identical core numbers.
    backend:
        Graph backend for the generalized algorithms: ``"dict"`` (the
        reference dict-of-sets representation), ``"csr"`` (flat-array CSR
        snapshot with array-based h-bounded BFS — typically several times
        faster), ``"numpy"`` (CSR with vectorized bulk passes; needs NumPy),
        ``"native"`` (CSR with compiled kernels), ``"auto"`` (dict for
        graphs with non-``int`` vertex labels; otherwise native from 2048
        vertices when its kernels are available, numpy from 512 when NumPy
        is importable, csr below that), or a pre-built engine from
        :func:`repro.core.backends.resolve_engine`.  Every backend returns
        identical core numbers.  The ``"classic"`` and ``"naive"``
        algorithms always run on the dict reference path — ``classic`` is
        already a flat bucket peeling without any BFS, and ``naive`` exists
        purely as a correctness oracle.
    context:
        Optional pre-built :class:`~repro.runtime.ExecutionContext` that
        supersedes ``backend`` / ``executor`` / ``num_workers``.  The
        context (and any engine or worker pool it owns) is **not** closed
        here — the caller controls its lifetime, which is how repeated
        decompositions amortize a CSR snapshot or a process pool.

    Returns
    -------
    CoreDecomposition

    Examples
    --------
    >>> from repro.graph import complete_graph
    >>> decomposition = core_decomposition(complete_graph(5), h=2)
    >>> decomposition.degeneracy
    4
    """
    algorithm = resolve_algorithm(algorithm, h)
    if isinstance(backend, str) and backend not in BACKENDS:
        raise ParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise InvalidDistanceThresholdError(h)
    _validate_executor(executor)
    if counters is not None:
        sink = counters
    elif context is not None and context.counters is not NULL_COUNTERS:
        sink = context.counters
    else:
        sink = Counters()

    if algorithm == "classic":
        if h != 1:
            raise ParameterError("the classic algorithm only supports h = 1")
        return classic_core_decomposition(graph, counters=sink)
    if algorithm == "naive":
        return naive_core_decomposition(graph, h)
    # Resolve the execution context once, so "auto" makes a single
    # suitability scan and a CSR snapshot is built (at most) once per
    # decomposition.  Contexts resolved *here* are scoped here: any process
    # pool / shared-memory block their engine spun up is torn down before
    # returning.  Callers who want to amortize engine or pool across
    # decompositions pass a long-lived context (or a pre-built engine).
    with scoped_context(graph, context, backend=backend, executor=executor,
                        num_workers=num_workers, counters=sink) as ctx:
        if algorithm == "h-BZ":
            return h_bz(graph, h, counters=sink, context=ctx)
        if algorithm == "h-LB":
            return h_lb(graph, h, counters=sink, context=ctx)
        return h_lb_ub(graph, h, partition_size=partition_size, counters=sink,
                       context=ctx)


def core_decomposition_with_report(graph: Graph, h: int,
                                   algorithm: str = "auto",
                                   dataset_name: str = "graph",
                                   partition_size: int = 1,
                                   backend: Union[str, Engine] = "auto",
                                   executor: str = "thread",
                                   num_workers: Optional[int] = None,
                                   context: Optional[ExecutionContext] = None
                                   ) -> RunReport:
    """Run :func:`core_decomposition` and return a timed, counted report.

    The experiment harness (Tables 3 and 5) is built on this wrapper.  The
    call runs under one execution context, and ``params`` records the
    backend, executor and worker count that context actually used (so a
    ``backend="auto"`` request reports the engine it resolved to).  The
    ``classic`` and ``naive`` algorithms peel the dict graph serially, so
    they open no context and record ``"dict"`` / ``"serial"``.
    """
    algorithm = resolve_algorithm(algorithm, h)
    counters = Counters()
    timer = Timer()
    if algorithm in DICT_ALGORITHMS:
        with timer:
            result = core_decomposition(graph, h, algorithm=algorithm,
                                        counters=counters, backend=backend,
                                        executor=executor, context=context)
        used = {"num_workers": 1, "executor": "serial", "backend": "dict"}
    else:
        with timer, scoped_context(graph, context, backend=backend,
                                   executor=executor, num_workers=num_workers,
                                   counters=counters) as ctx:
            result = core_decomposition(graph, h, algorithm=algorithm,
                                        partition_size=partition_size,
                                        counters=counters, context=ctx)
        used = {"num_workers": ctx.num_workers, "executor": ctx.executor,
                "backend": ctx.backend_name}
    return RunReport(
        algorithm=result.algorithm,
        dataset=dataset_name,
        h=h,
        seconds=timer.elapsed,
        counters=counters,
        result=result,
        params={"partition_size": partition_size, **used},
    )
