"""Retry/backoff policies and the resilience report.

Pure-stdlib value objects shared by the supervised executor, the engine
degradation ladder, and the CLI's ``--verbose`` reporting.  Nothing here
imports the heavier subsystems, so any layer can depend on this module
without cycles.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union


def chunk_deadline_from_env() -> Optional[float]:
    """Per-chunk deadline in seconds from ``KH_CORE_CHUNK_DEADLINE`` (if set)."""
    try:
        value = float(os.environ.get("KH_CORE_CHUNK_DEADLINE", "") or 0.0)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with exponential backoff and seeded jitter.

    ``max_retries`` bounds re-dispatches of a single failed chunk;
    ``max_pool_rebuilds`` bounds how many times a broken process pool is
    torn down and respawned within one bulk dispatch before the caller
    degrades to the next executor rung.
    """

    max_retries: int = 3
    max_pool_rebuilds: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            attempt = 1
        raw = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        capped = min(raw, self.backoff_max)
        return capped * (1.0 + self.jitter * rng.random())


@dataclass
class ResilienceReport:
    """Tally of recovery actions taken while completing a decomposition.

    Attached to the engine (``engine.resilience``), surfaced through
    ``Counters`` under ``resilience.*`` keys, and printed by
    ``kh-core --verbose``.  All-zero on a fault-free run.
    """

    retries: int = 0
    pool_rebuilds: int = 0
    deadline_hits: int = 0
    wasted_chunks: int = 0
    faults_injected: int = 0
    downgrades: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def note(self, event: str, amount: int = 1) -> None:
        """Increment the integer counter named ``event``."""
        with self._lock:
            setattr(self, event, getattr(self, event) + amount)

    def record_downgrade(self, source: str, target: str) -> None:
        """Record an executor downgrade, e.g. ``process`` → ``thread``."""
        with self._lock:
            self.downgrades.append(f"{source}->{target}")

    @property
    def total_events(self) -> int:
        """Total number of recovery events across all categories."""
        with self._lock:
            return (
                self.retries
                + self.pool_rebuilds
                + self.deadline_hits
                + self.wasted_chunks
                + len(self.downgrades)
            )

    def as_dict(self) -> Dict[str, Union[int, List[str]]]:
        """Plain-dict view for JSON reports and ``/stats`` payloads."""
        with self._lock:
            return {
                "retries": self.retries,
                "pool_rebuilds": self.pool_rebuilds,
                "deadline_hits": self.deadline_hits,
                "wasted_chunks": self.wasted_chunks,
                "faults_injected": self.faults_injected,
                "downgrades": list(self.downgrades),
            }

    def summary(self) -> str:
        """One-line human summary for ``kh-core --verbose``."""
        with self._lock:
            downgrades = ",".join(self.downgrades) if self.downgrades else "none"
            return (
                f"retries={self.retries} pool_rebuilds={self.pool_rebuilds} "
                f"deadline_hits={self.deadline_hits} "
                f"wasted_chunks={self.wasted_chunks} downgrades={downgrades}"
            )

    def reset(self) -> None:
        """Zero every tally (fresh decomposition on a reused engine)."""
        with self._lock:
            self.retries = 0
            self.pool_rebuilds = 0
            self.deadline_hits = 0
            self.wasted_chunks = 0
            self.faults_injected = 0
            self.downgrades.clear()
