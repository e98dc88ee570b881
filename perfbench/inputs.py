"""Seeded input generation for the benchmark.

The benchmark owns its inputs: every graph is produced here as a plain edge
list from ``random.Random`` seeded by the run's ``--seed``, so a change to
the library's own generators can never change what is measured.  The
program under test only ever receives the generated edge lists (and, for
the serve workload, the HTTP requests built from them).

The families match the graphs the roadmap measures: Barabasi-Albert
(hub-heavy, small diameter), a perturbed grid standing in for road networks
(large diameter, small h-balls) and Holme-Kim power-law-cluster graphs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

Edge = Tuple[int, int]


def barabasi_albert(n: int, m: int, rng: random.Random) -> List[Edge]:
    """Preferential attachment: each new vertex links to ``m`` distinct
    earlier vertices picked proportionally to degree."""
    edges: List[Edge] = []
    # Seed star over vertices 0..m so that every vertex starts with degree 1.
    ends: List[int] = []
    for v in range(1, m + 1):
        edges.append((0, v))
        ends += (0, v)
    for new in range(m + 1, n):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(ends[rng.randrange(len(ends))])
        for t in sorted(targets):
            edges.append((new, t))
            ends += (new, t)
    return edges


def road_grid(rows: int, cols: int, rng: random.Random,
              diagonal_p: float = 0.05, removal_p: float = 0.05) -> List[Edge]:
    """A 2-D grid with a few diagonal shortcuts and a few removed streets.

    Removals never drop a vertex to degree 0, so the vertex set is always
    the full ``rows * cols`` grid.
    """
    adjacency: Dict[int, Set[int]] = {v: set() for v in range(rows * cols)}

    def link(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)

    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                link(v, v + 1)
            if r + 1 < rows:
                link(v, v + cols)
            if r + 1 < rows and c + 1 < cols and rng.random() < diagonal_p:
                link(v, v + cols + 1)
    edges = sorted((u, v) for u in adjacency for v in adjacency[u] if u < v)
    kept: List[Edge] = []
    for u, v in edges:
        if (rng.random() < removal_p and len(adjacency[u]) > 1
                and len(adjacency[v]) > 1):
            adjacency[u].discard(v)
            adjacency[v].discard(u)
        else:
            kept.append((u, v))
    return kept


def powerlaw_cluster(n: int, m: int, triangle_p: float,
                     rng: random.Random) -> List[Edge]:
    """Holme-Kim: preferential attachment plus triangle closure with
    probability ``triangle_p`` after each attachment."""
    adjacency: Dict[int, Set[int]] = {v: set() for v in range(n)}
    ends: List[int] = []
    for v in range(1, m + 1):
        adjacency[0].add(v)
        adjacency[v].add(0)
        ends += (0, v)
    for new in range(m + 1, n):
        added = 0
        while added < m:
            target = ends[rng.randrange(len(ends))]
            if target == new or target in adjacency[new]:
                continue
            adjacency[new].add(target)
            adjacency[target].add(new)
            ends += (new, target)
            added += 1
            if rng.random() < triangle_p:
                closing = sorted(w for w in adjacency[target]
                                 if w != new and w not in adjacency[new])
                if closing:
                    w = closing[rng.randrange(len(closing))]
                    adjacency[new].add(w)
                    adjacency[w].add(new)
                    ends += (new, w)
                    added += 1
    return sorted((u, v) for u in adjacency for v in adjacency[u] if u < v)


def distant_pairs(edges: List[Edge], rng: random.Random,
                  count: int) -> List[Edge]:
    """``count`` non-adjacent vertex pairs 2-3 hops apart in ``edges``.

    Found by short random walks; used as the serve workload's insertions,
    which then touch a local region instead of bridging far-apart parts of
    the graph.
    """
    adjacency: Dict[int, List[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    vertices = sorted(adjacency)
    pairs: List[Edge] = []
    seen: Set[Edge] = set()
    while len(pairs) < count:
        u = vertices[rng.randrange(len(vertices))]
        w = u
        for _ in range(rng.choice((2, 3))):
            w = adjacency[w][rng.randrange(len(adjacency[w]))]
        pair = (min(u, w), max(u, w))
        if u == w or w in adjacency[u] or pair in seen:
            continue
        seen.add(pair)
        pairs.append(pair)
    return pairs
