"""repro — Distance-generalized core decomposition ((k,h)-cores).

A from-scratch Python reproduction of *"Distance-generalized Core
Decomposition"* (Bonchi, Khan, Severini — SIGMOD 2019): the (k,h)-core
definition, the three exact decomposition algorithms (h-BZ, h-LB, h-LB+UB),
and the applications built on top of the decomposition (distance-h chromatic
number, maximum h-club, distance-h densest subgraph, distance-generalized
community search, and landmark selection for shortest-path estimation).

Quickstart
----------
>>> from repro import Graph, core_decomposition
>>> g = Graph([(1, 2), (2, 3), (3, 1), (3, 4)])
>>> decomposition = core_decomposition(g, h=2)
>>> decomposition.degeneracy
3
"""

from repro.errors import (
    ReproError,
    GraphError,
    VertexNotFoundError,
    EdgeNotFoundError,
    ParameterError,
    InvalidDistanceThresholdError,
    GraphFormatError,
    DatasetNotFoundError,
    DatasetChecksumError,
    ResilienceError,
    WorkerPoolError,
    DeadlineExceededError,
    ServiceOverloadedError,
    FaultInjectedError,
    SolverTimeoutError,
    ExperimentError,
)
from repro.graph import (
    FrozenGraphView,
    Graph,
    SubgraphView,
    load_csr,
    stream_load,
)
from repro.core import (
    CoreDecomposition,
    core_decomposition,
    core_decomposition_with_report,
    classic_core_decomposition,
    h_bz,
    h_lb,
    h_lb_ub,
)
from repro.traversal import h_degree, h_neighborhood, power_graph
from repro.dynamic import DynamicKHCore, EdgeUpdate, read_update_stream
from repro.runtime import ExecutionContext

#: Single source of truth alongside pyproject.toml's ``version`` — keep the
#: two in lockstep when releasing.
__version__ = "0.13.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "ParameterError",
    "InvalidDistanceThresholdError",
    "GraphFormatError",
    "DatasetNotFoundError",
    "DatasetChecksumError",
    "ResilienceError",
    "WorkerPoolError",
    "DeadlineExceededError",
    "ServiceOverloadedError",
    "FaultInjectedError",
    "SolverTimeoutError",
    "ExperimentError",
    # graph
    "Graph",
    "SubgraphView",
    "FrozenGraphView",
    # out-of-core storage tier
    "load_csr",
    "stream_load",
    # core decomposition
    "CoreDecomposition",
    "core_decomposition",
    "core_decomposition_with_report",
    "classic_core_decomposition",
    "h_bz",
    "h_lb",
    "h_lb_ub",
    # traversal helpers
    "h_degree",
    "h_neighborhood",
    "power_graph",
    # dynamic maintenance
    "DynamicKHCore",
    "EdgeUpdate",
    "read_update_stream",
    # execution runtime
    "ExecutionContext",
]
