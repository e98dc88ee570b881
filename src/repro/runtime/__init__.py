"""Execution runtime: context and peel-state layouts.

One layer that owns *how* a decomposition runs — engine resolution, executor
selection, worker-pool lifecycle, counters, close/ownership semantics, and
the peel-state layout — so the algorithms only describe *what* they compute.
See :class:`repro.runtime.ExecutionContext` for the entry point and
:mod:`repro.runtime.peel` for the flat-array peel kernel state.
"""

from repro.runtime.context import ExecutionContext, scoped_context
from repro.runtime.peel import (
    PEEL_STATES,
    ArrayCoreMap,
    ArrayPeelState,
    DictPeelState,
    PeelState,
    make_core_map,
    make_peel_state,
    resolve_peel_kind,
)

__all__ = [
    "ExecutionContext",
    "scoped_context",
    "PEEL_STATES",
    "ArrayCoreMap",
    "ArrayPeelState",
    "DictPeelState",
    "PeelState",
    "make_core_map",
    "make_peel_state",
    "resolve_peel_kind",
]
