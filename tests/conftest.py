"""Shared fixtures for the test suite."""
from __future__ import annotations

import pytest

from corpus import make_graph


@pytest.fixture(scope="session")
def atlas_corpus():
    """All connected graphs on 2..6 vertices, one per isomorphism class."""
    nx = pytest.importorskip("networkx")
    out = []
    for G in nx.graph_atlas_g():
        if 2 <= G.number_of_nodes() <= 6 and nx.is_connected(G):
            mapping = {v: i + 1 for i, v in enumerate(sorted(G.nodes()))}
            edges = sorted(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                for u, v in G.edges()
            )
            out.append(make_graph(G.number_of_nodes(), edges))
    return out
