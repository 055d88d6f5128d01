"""Golden schema-1 shard directory.

``golden/schema1-12-nodes-3-shards`` was written by ``write_shards``
(through ``write_graph_shards``) for the 12-node graph below, with three
shards, when ``SHARD_SCHEMA`` was 1.  It must keep loading, reassemble
to the same CSR and carry a sharded run to the in-memory tier's
coloring; a manifest from a newer schema must be refused by name.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.edge_coloring import color_edges
from repro.core.sharded import Alg1ShardKernel
from repro.errors import GraphError
from repro.graphs.adjacency import Graph
from repro.graphs.shards import MANIFEST_NAME, ShardSet
from repro.runtime.sharded import ShardedEngine
from repro.types import canonical_edge
from repro.verify.differential import colors_digest

GOLDEN = Path(__file__).parent / "golden" / "schema1-12-nodes-3-shards"

EDGES = [
    (0, 3), (0, 5), (0, 6), (0, 9), (1, 4), (1, 5), (1, 6), (1, 9), (2, 6),
    (3, 4), (3, 5), (3, 9), (3, 10), (4, 11), (5, 8), (6, 11), (8, 11), (9, 10),
]
SEED = 3

#: Alg. 1's coloring of this graph at seed 3 on every tier (the run the
#: golden checkpoints in tests/unit/resilience hold).
DIGEST = "af541cb35e297ce6a8518ddf9b52c6bb"


def _graph() -> Graph:
    g = Graph.from_num_nodes(12)  # node 7 is isolated
    g.add_edges_from(EDGES)
    return g


def test_loads_and_reassembles_the_graph():
    shards = ShardSet(GOLDEN)
    assert (shards.n, shards.m, shards.num_shards) == (12, 36, 3)
    assert shards.shard_nodes == [4, 4, 4]
    indptr, indices = shards.assemble_csr()
    want_indptr, want_indices = _graph().to_csr()
    assert indptr.tolist() == want_indptr.tolist()
    assert indices.tolist() == want_indices.tolist()


def test_sharded_run_matches_the_in_memory_tier(tmp_path):
    kernel = Alg1ShardKernel()
    run = ShardedEngine(
        GOLDEN, kernel, num_shards=3, spill_dir=tmp_path, seed=SEED
    ).run()
    assert run.completed
    got = colors_digest(
        {canonical_edge(s, t): c for s, t, c in kernel.assignments}
    )
    want = color_edges(_graph(), seed=SEED, compute="auto")
    assert got == colors_digest(want.colors) == DIGEST
    assert run.supersteps == want.supersteps


def test_newer_schema_is_refused_by_name(tmp_path):
    copy = tmp_path / "shards"
    shutil.copytree(GOLDEN, copy)
    manifest = json.loads((copy / MANIFEST_NAME).read_text())
    manifest["schema"] = 2
    (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(GraphError, match="schema 2"):
        ShardSet(copy)
