"""Golden permutations: Stage-2 and the pattern search must stay bit-identical.

The digests below were recorded from the scalar Stage-2 implementation (a
Python double loop for ``freshtop``, int64 gain products and an incremental
active-row cache).  Any rewrite of the Stage-2 inner loop has to reproduce the
same greedy with the same tie-breaking, so every permutation — and with it
every downstream compressed operand and modelled speedup — stays exactly the
same.  A mismatch here means the ordering changed, not that the test is stale.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import NMPattern, find_best_pattern, stage2_reorder
from repro.graphs.generators import suitesparse_like_collection


def _digest(order: np.ndarray, prefix: str = "") -> str:
    blob = prefix.encode() + np.ascontiguousarray(order, dtype=np.int64).tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


_GRAPHS: dict[str, object] = {}


def _graph(name: str):
    """One corpus graph by name, generated once per session."""
    if not _GRAPHS:
        _GRAPHS.update((g.name, g) for g in suitesparse_like_collection("small", count=14, seed=0))
        _GRAPHS.update(
            (g.name, g)
            for g in suitesparse_like_collection("medium", count=7, seed=0, max_vertices=4000)
        )
    return _GRAPHS[name]


# (graph, M) -> digest of stage2_reorder(graph, 2:M).permutation.order
STAGE2_GOLDEN = {
    ("small-sbm-2", 4): "4a04d0eeca294e3b",
    ("small-sbm-2", 8): "d90db50e80c3b94e",
    ("small-sbm-2", 16): "d21b27e8a24caa0b",
    ("small-powerlaw-5", 4): "9302427604ce44bc",
    ("small-powerlaw-5", 8): "debfba4fdada5e8b",
    ("small-powerlaw-5", 16): "18e38dfd38741303",
    ("small-banded-13", 4): "7a7a3438a2ccf117",
    ("small-banded-13", 8): "28e5b07c446d80d3",
    ("small-banded-13", 16): "134c8f31817060c1",
    ("medium-banded-4", 4): "307a260b36c911d2",
    ("medium-banded-4", 8): "61137e58c4b56737",
    ("medium-banded-4", 16): "cc445a4562f5fcd7",
    ("medium-banded-5", 4): "b44ad3bc1957cf72",
    ("medium-banded-5", 8): "723686f30c817493",
    ("medium-banded-5", 16): "50c54616eedea6d5",
    ("medium-powerlaw-6", 4): "c7560c13df2e6476",
    ("medium-powerlaw-6", 8): "a2ee557eed75c91f",
    ("medium-powerlaw-6", 16): "e386f15b4e552412",
}

# graph -> (digest of "pattern|order", attempted patterns with outcomes)
SEARCH_GOLDEN = {
    "small-banded-1": (
        "e968325f31359b6e",
        (("1:2:4", True), ("1:2:8", True), ("1:2:16", True), ("1:2:32", True),
         ("2:2:32", True), ("4:2:32", False)),
    ),
    "medium-sbm-3": (
        "8998d413300343e6",
        (("1:2:4", True), ("1:2:8", True), ("1:2:16", True), ("1:2:32", True),
         ("2:2:32", True), ("4:2:32", True), ("8:2:32", False)),
    ),
}


@pytest.mark.parametrize(("name", "m"), sorted(STAGE2_GOLDEN))
def test_stage2_permutation_is_golden(name, m):
    res = stage2_reorder(_graph(name).bitmatrix(), NMPattern(2, m))
    assert _digest(res.permutation.order) == STAGE2_GOLDEN[name, m]


@pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN))
def test_pattern_search_is_golden(name):
    found = find_best_pattern(_graph(name).bitmatrix())
    digest, attempts = SEARCH_GOLDEN[name]
    assert str(found.pattern) == "1:2:32"
    assert tuple((str(p), ok) for p, ok in found.attempts) == attempts
    assert _digest(found.result.permutation.order, f"{found.pattern}|") == digest
