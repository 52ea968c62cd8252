"""Multi-process transport tests: real OS processes, same node code."""

import pytest

from repro.net.mp import MpCluster, MpTransportError
from repro.net.sizes import size_of
from repro.net.wire import as_solution_set
from repro.overlay import StorageNode
from repro.rdf import FOAF, TriplePattern, Variable
from repro.sparql.algebra import BGP
from repro.workloads import paper_example_partition

ALG = BGP((TriplePattern(Variable("x"), FOAF.knows, Variable("y")),))


@pytest.fixture
def cluster():
    with MpCluster() as c:
        for sid, triples in paper_example_partition().items():
            c.spawn(StorageNode(sid, triples))
        yield c


class TestMpCluster:
    def test_call_evaluate(self, cluster):
        rows = cluster.call("D2", "evaluate", {"algebra": ALG})
        assert len(rows) > 0

    @pytest.mark.parametrize("encode", [True, False], ids=["batch", "plain"])
    def test_shipped_rows_cross_processes_at_their_wire_size(self, cluster,
                                                            encode):
        # Rows ship by reference in the simulator; across processes the
        # same payload is pickled and must keep its charge and its rows.
        payload = {"algebra": ALG, "encode": encode}
        remote = cluster.call("D2", "evaluate", payload)
        local = StorageNode("D2", paper_example_partition()["D2"]).rpc_evaluate(
            payload, "t")
        assert size_of(remote) == size_of(local)
        assert as_solution_set(remote) == as_solution_set(local)
        assert len(as_solution_set(remote)) > 0

    def test_call_unknown_node(self, cluster):
        with pytest.raises(MpTransportError):
            cluster.call("ghost", "evaluate", {})

    def test_call_missing_handler_raises(self, cluster):
        with pytest.raises(MpTransportError, match="no handler"):
            cluster.call("D1", "nonexistent", {})

    def test_chain_across_processes_matches_single_node_union(self, cluster):
        # chained in-network aggregation over all four real processes
        cluster.send("D1", "chain_step", {
            "algebra": ALG, "acc": [], "route": ["D2", "D3", "D4"],
            "final": "client", "corr": "q-mp", "notify": None,
        })
        chained = cluster.wait_delivery("q-mp")
        # oracle: union of per-node evaluations
        expected = set()
        for sid in ("D1", "D2", "D3", "D4"):
            expected.update(cluster.call(sid, "evaluate", {"algebra": ALG}))
        assert set(chained) == expected

    def test_duplicate_spawn_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.spawn(StorageNode("D1"))
