"""Ablation A1: König edge-colouring backends.

The schedule quality is identical for every proper colouring — what
differs is planning speed.  This bench times the three backends on the
graphs the planner actually builds (the global row multigraph of a
random permutation and the stacked per-row bank multigraph) and
verifies all outputs with the common checker.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.coloring import (
    RegularBipartiteMultigraph,
    euler_split_coloring,
    hopcroft_karp_coloring,
    matching_coloring,
)
from repro.coloring.birkhoff import birkhoff_decomposition
from repro.coloring.verify import verify_edge_coloring
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation


def _global_graph(m: int, seed: int) -> RegularBipartiteMultigraph:
    """The degree-m row multigraph of a random m^2 permutation."""
    p = random_permutation(m * m, seed=seed)
    i = np.arange(m * m)
    return RegularBipartiteMultigraph.from_edges(i // m, p // m, m, m)


from repro.coloring.hybrid import hybrid_coloring

BACKENDS = {
    "euler": euler_split_coloring,
    "hybrid": hybrid_coloring,
    "matching (scipy)": matching_coloring,
    "hopcroft-karp (pure)": hopcroft_karp_coloring,
}


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("m", [32, 64])
def test_bench_backend_global_graph(benchmark, backend_name, m):
    graph = _global_graph(m, seed=m)
    colors = benchmark(BACKENDS[backend_name], graph)
    verify_edge_coloring(graph, colors, expect_colors=m)


@pytest.mark.parametrize("backend", ["euler", "matching"])
def test_bench_backend_in_full_plan(benchmark, backend):
    """End-to-end planning cost under each backend (HK is too slow for
    the full plan and is covered on the raw graphs above)."""
    p = random_permutation(64 * 64, seed=3)
    plan = benchmark(ScheduledPermutation.plan, p, 8, backend)
    plan.verify()


def test_planning_scaling_report(report, benchmark):
    """Offline planning cost vs n: near-linear (the level-synchronous
    Euler colouring is one initial sort plus O(E) per level, log D
    levels), and inverse planning — which reuses the global colouring —
    is cheaper than a fresh plan."""
    import time

    from repro.analysis.charts import loglog_slope
    from repro.analysis.tables import format_table

    def sweep():
        rows = []
        sizes, times = [], []
        for m in (64, 128, 256):
            n = m * m
            p = random_permutation(n, seed=m)
            t0 = time.perf_counter()
            plan = ScheduledPermutation.plan(p, width=32)
            t_plan = time.perf_counter() - t0
            t0 = time.perf_counter()
            plan.inverse()
            t_inv = time.perf_counter() - t0
            rows.append([m, n, round(t_plan * 1e3, 1),
                         round(t_inv * 1e3, 1),
                         round(t_inv / t_plan, 2)])
            sizes.append(float(n))
            times.append(t_plan)
        slope = loglog_slope(sizes, times)
        assert slope < 1.6          # near-linear planning
        # Inverse planning skips the global colouring: cheaper.
        assert all(r[3] < r[2] for r in rows)
        return rows, slope

    rows, slope = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "planning_scaling",
        format_table(
            ["sqrt(n)", "n", "plan ms", "inverse ms", "inv/plan"],
            rows,
            title=(f"offline planning cost (width 32); growth "
                   f"O(n^{slope:.2f})"),
        ),
    )


def test_coloring_report(report, benchmark):
    """All backends agree on validity; Birkhoff shows the count-matrix
    view needs far fewer matchings than colours when multiplicities are
    large."""

    def collect():
        rows = []
        for m in (16, 32, 64):
            graph = _global_graph(m, seed=m)
            for name, backend in BACKENDS.items():
                colors = backend(graph)
                verify_edge_coloring(graph, colors, expect_colors=m)
                rows.append([m, graph.num_edges, name, int(colors.max()) + 1])
            terms = birkhoff_decomposition(graph.count_matrix())
            rows.append([
                m, graph.num_edges, "birkhoff (count matrix)", len(terms)
            ])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "ablation_coloring",
        format_table(
            ["m (degree)", "edges", "backend", "colours / terms"],
            rows,
            title="A1 — colouring backends on the global row multigraph "
                  "(all verified proper; Birkhoff terms <= colours)",
        ),
    )
