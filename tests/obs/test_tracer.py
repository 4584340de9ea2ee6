"""Unit tests for the span tracer: link splicing, round recording,
eviction, dump round-trips, and the lowering of a round record into
its span forest."""

import pytest

from repro.core import RoundRecord
from repro.obs.trace import Tracer, round_forest


def _record(**kw):
    base = dict(
        iteration=0,
        round_name="fwd",
        t_start=10.0,
        t_end=11.0,
        compute_wait=0.5,
        comm_time=0.2,
        verify_time=0.1,
        decode_time=0.1,
        n_collected=3,
        n_verified=3,
        n_rejected=0,
        used_workers=(0, 1, 2),
        worker_latencies=((0, 0.3), (1, 0.4), (2, 0.5)),
    )
    base.update(kw)
    return RoundRecord(**base)


class TestTracer:
    def test_begin_end_and_root(self):
        tr = Tracer()
        root = tr.begin("t", "request", 1.0, tenant="a")
        child = tr.begin("t", "step", 1.1, parent_id=root)
        tr.end(child, 1.5)
        tr.end(root, 2.0, status="served")
        assert tr.root_id("t") == root
        root_span = tr.root("t")
        assert root_span.span_id == root
        assert root_span.t_end == 2.0
        assert root_span.attrs["status"] == "served"
        (child_span,) = [s for s in tr.spans("t") if s.span_id == child]
        assert child_span.duration == pytest.approx(0.4)

    def test_span_ids_globally_unique_across_traces(self):
        tr = Tracer()
        a = tr.begin("t1", "a", 0.0)
        b = tr.begin("t2", "b", 0.0)
        assert a != b

    def test_end_is_first_close_wins_and_unknown_ids_are_ignored(self):
        tr = Tracer()
        sid = tr.begin("t", "x", 0.0)
        tr.end(sid, 1.0)
        tr.end(sid, 5.0)  # already closed: kept at 1.0
        tr.end(10**9, 2.0)  # never begun: no-op
        (span,) = tr.spans("t")
        assert span.t_end == 1.0

    def test_record_round_resolves_local_parents(self):
        tr = Tracer()
        tr.record_round("f", _record(), {0: [["daemon.compute", 0.0, 0.2]]})
        by_name = {s.name: s for s in tr.spans("f")}
        assert by_name["round"].parent_id is None
        assert tr.root_id("f") == by_name["round"].span_id
        for name in ("round.broadcast", "round.collect", "round.verify", "round.decode"):
            assert by_name[name].parent_id == by_name["round"].span_id
        assert by_name["worker:0"].parent_id == by_name["round.collect"].span_id
        assert by_name["daemon.compute"].parent_id == by_name["worker:0"].span_id

    def test_resolved_splices_linked_trace(self):
        tr = Tracer()
        root, session = tr.begin_request("req", "request", "session", 10.0)
        tr.record_round("round-0", _record(worker_latencies=(), used_workers=()))
        tr.link_rounds([("req", session, root)], 10.0, 11.0, "round-0", "fwd")
        resolved = tr.resolved("req")
        names = [s.name for s in resolved]
        assert names == [
            "request",
            "session",
            "round",
            "round",
            "round.broadcast",
            "round.collect",
            "round.verify",
            "round.decode",
        ]
        link = resolved[2]
        assert link.attrs == {"link": "round-0", "round_name": "fwd"}
        assert link.parent_id == session
        # the rider's spans close at the round's end
        assert resolved[0].t_end == resolved[1].t_end == 11.0
        # the spliced round root is re-parented under the link span
        spliced_root = resolved[3]
        assert spliced_root.parent_id == link.span_id
        # every non-root parent id resolves inside the resolved set
        ids = {s.span_id for s in resolved}
        roots = [s for s in resolved if s.parent_id is None]
        assert len(roots) == 1
        assert all(
            s.parent_id in ids for s in resolved if s.parent_id is not None
        )

    def test_resolved_survives_link_cycles(self):
        tr = Tracer()
        a = tr.add("a", "a", 0.0, 1.0, link="b")
        tr.add("b", "b", 0.0, 1.0, link="a")
        assert tr.resolved("a")  # terminates

    def test_eviction_drops_oldest_trace(self):
        tr = Tracer(max_traces=2)
        tr.add("t1", "x", 0.0, 1.0)
        tr.add("t2", "x", 0.0, 1.0)
        tr.add("t3", "x", 0.0, 1.0)
        assert not tr.has("t1")
        assert tr.has("t2") and tr.has("t3")

    def test_dump_roundtrip_preserves_ids(self):
        tr = Tracer()
        root = tr.begin("t", "request", 1.0)
        tr.begin("t", "kid", 1.1, parent_id=root)
        back = Tracer.from_dump(tr.dump())
        spans = back.spans("t")
        assert [s.span_id for s in spans] == [
            s.span_id for s in tr.spans("t")
        ]
        # new spans keep allocating above the restored ids
        fresh = back.begin("t", "more", 2.0)
        assert fresh > spans[-1].span_id


class TestRoundForest:
    def test_round_forest_shape_and_containment(self):
        rec = _record()
        forest = round_forest(rec, {1: [["worker.compute", 0.0, 0.2]]})
        names = [n["name"] for n in forest]
        assert names[0] == "round"
        assert "round.broadcast" in names and "round.collect" in names
        assert "round.verify" in names and "round.decode" in names
        assert sum(1 for n in names if n.startswith("worker:")) == 3
        assert "worker.compute" in names
        t0, t3 = rec.t_start, rec.t_end
        for node in forest:
            assert t0 <= node["t_start"] <= node["t_end"] <= t3

    def test_round_forest_marks_unused_workers(self):
        rec = _record(used_workers=(0, 1))
        forest = round_forest(rec)
        flags = {
            n["attrs"]["worker_id"]: n["attrs"]["used"]
            for n in forest
            if n["name"].startswith("worker:")
        }
        assert flags == {0: True, 1: True, 2: False}
