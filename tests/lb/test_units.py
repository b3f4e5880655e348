"""Unit tests for the lb layer's bookkeeping paths.

The property suite (:mod:`tests.lb.test_properties`), fault fuzz and
golden traces cover the end-to-end behaviours; these tests pin the
smaller contracts -- registry membership/publish mechanics, frontend
session accounting, the drainer's log, and the ring's refusal of an
empty membership.
"""

from types import SimpleNamespace

import pytest

from repro.dns.resolver import InternalDns
from repro.errors import ProtocolError
from repro.lb import (
    ConnectionDrainer,
    ConsistentHashBalancer,
    FrontendSession,
    ServiceFrontend,
    ServiceRegistry,
    record_name,
)
from repro.sim.event_loop import EventLoop


def make_registry(loop, rids=("r0", "r1"), service="svc.unit"):
    registry = ServiceRegistry(loop, InternalDns(), service, ttl=1.0)
    for rid in rids:
        registry.register(rid)
    return registry


class TestServiceRegistry:
    def test_publish_carries_versioned_membership(self):
        loop = EventLoop()
        registry = make_registry(loop)
        record = registry.dns.query(record_name("svc.unit"), loop.now)
        assert record.replicas == ("r0", "r1")
        version = record.version
        registry.set_health("r1", False)
        record = registry.dns.query(record_name("svc.unit"), loop.now)
        assert record.replicas == ("r0",)
        assert record.version > version

    def test_register_is_idempotent(self):
        loop = EventLoop()
        registry = make_registry(loop)
        publishes = registry.publishes
        registry.register("r0")
        assert registry.members() == ("r0", "r1")
        assert registry.publishes == publishes

    def test_set_health_returns_whether_membership_changed(self):
        loop = EventLoop()
        registry = make_registry(loop)
        assert registry.set_health("r0", False) is True
        assert registry.set_health("r0", False) is False  # already down
        assert registry.set_health("ghost", False) is False
        assert registry.is_healthy("r0") is False
        assert registry.is_healthy("r1") is True

    def test_render_log_lists_membership_events(self):
        loop = EventLoop()
        registry = make_registry(loop)
        registry.set_health("r1", False)
        text = registry.render_log()
        assert "register" in text and "down" in text and "r1" in text

    def test_periodic_republish_refreshes_ttl(self):
        loop = EventLoop()
        registry = make_registry(loop)
        registry.start()
        before = registry.publishes
        loop.run(until=registry.ttl * 3)
        registry.stop()
        assert registry.publishes > before
        # The record survived well past its TTL thanks to the refresh.
        assert registry.dns.query(
            record_name("svc.unit"), loop.now
        ).replicas == ("r0", "r1")


def make_frontend(loop, rids=("r0", "r1", "r2")):
    registry = make_registry(loop, rids)

    class _Stub:
        def __init__(self, rid):
            self.rid = rid

    # A host stand-in: bookkeeping never opens an endpoint on it.
    return ServiceFrontend(
        SimpleNamespace(loop=loop), registry, {rid: _Stub(rid) for rid in rids},
        tickets=None, trust_roots=(),
    )


class TestFrontendBookkeeping:
    def test_close_session_releases_the_slot(self):
        loop = EventLoop()
        fe = make_frontend(loop)
        s = FrontendSession(sid=0, key="k", replica="r1", mode="1rtt",
                            opened_at=0.0)
        fe.sessions.append(s)
        fe._by_rid["r1"].add(0)
        fe.close_session(s)
        assert s.closed
        assert fe.sessions_on("r1") == []

    def test_route_skips_draining_and_excluded(self):
        loop = EventLoop()
        fe = make_frontend(loop)
        fe.mark_draining("r0")
        picks = {fe.route(f"key-{k}", exclude=("r1",)) for k in range(20)}
        assert picks == {"r2"}
        fe.clear_draining("r0")
        assert "r0" in fe.candidates()

    def test_route_with_nothing_routable_raises(self):
        loop = EventLoop()
        fe = make_frontend(loop, rids=("r0",))
        fe.mark_draining("r0")
        with pytest.raises(ProtocolError, match="no routable replica"):
            fe.route("key")


class TestDrainer:
    def test_drain_moves_sessions_and_keeps_membership(self):
        loop = EventLoop()
        fe = make_frontend(loop)
        s = FrontendSession(sid=0, key="k", replica="r0", mode="0rtt",
                            opened_at=0.0)
        fe.sessions.append(s)
        fe._by_rid["r0"].add(0)
        drainer = ConnectionDrainer(loop, fe)
        assert drainer.drain("r0") == 1
        assert s.replica != "r0"
        assert fe.registry.members() == ("r0", "r1", "r2")
        assert drainer.log == [(0.0, "r0", 1)]


class TestConsistentHashBalancer:
    def test_empty_candidates_raise(self):
        with pytest.raises(ProtocolError):
            ConsistentHashBalancer().pick("k", ())
