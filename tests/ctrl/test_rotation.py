"""Ticket rotation, grace windows, client refresh, DNS lifecycle (§4.5.3)."""

import random

import pytest

from repro.core.zero_rtt import ZeroRttClient, ZeroRttServer, share_fingerprint
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.ctrl import SharedShareRotator, TicketCache, TicketRotator
from repro.dns.resolver import InternalDns
from repro.errors import ProtocolError
from repro.sim.event_loop import EventLoop
from repro.testbed import Testbed


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    key = EcdsaKeyPair.generate(rng)
    leaf = ca.issue("server", KEY_ALG_ECDSA, key.public_bytes())
    return ca, ca.chain_for(leaf), key


def make_zserver(pki, lifetime=10.0, grace_window=0.0, seed=5):
    _ca, chain, key = pki
    return ZeroRttServer(
        "server", chain, key, random.Random(seed),
        lifetime=lifetime, grace_window=grace_window,
    )


class TestRotator:
    def test_start_publishes_immediately(self, pki):
        loop = EventLoop()
        dns = InternalDns()
        rotator = TicketRotator(loop, make_zserver(pki), dns, "svc", period=1.0)
        rotator.start()
        assert rotator.rotations == 1
        assert dns.query("svc", loop.now) is not None

    def test_republishes_every_period(self, pki):
        loop = EventLoop()
        dns = InternalDns()
        zserver = make_zserver(pki, lifetime=1.0)
        rotator = TicketRotator(loop, zserver, dns, "svc")  # period = lifetime
        rotator.start()
        first_share = zserver.long_term.public_bytes()
        loop.run(until=3.5)
        rotator.stop()
        assert rotator.rotations == 4  # t = 0, 1, 2, 3
        assert zserver.long_term.public_bytes() != first_share
        # The published ticket always carries the *current* share.
        ticket = dns.query("svc", loop.now)
        assert ticket.long_term_share == zserver.long_term.public_bytes()

    def test_stop_freezes_schedule(self, pki):
        loop = EventLoop()
        rotator = TicketRotator(
            loop, make_zserver(pki), InternalDns(), "svc", period=1.0
        )
        rotator.start()
        rotator.stop()
        loop.run(until=10.0)
        assert rotator.rotations == 1

    def test_grace_knob_configures_server(self, pki):
        zserver = make_zserver(pki)
        TicketRotator(
            EventLoop(), zserver, InternalDns(), "svc", period=1.0, grace=0.25
        )
        assert zserver.grace_window == 0.25


class TestGraceWindow:
    """§4.5.3: after rotation the previous share works briefly, then never."""

    def _client_keys(self, pki, ticket, now, seed=9):
        ca, _chain, _key = pki
        client = ZeroRttClient(ticket, (ca.certificate,), now=now,
                               rng=random.Random(seed))
        return client.start()

    def test_previous_share_accepted_inside_grace(self, pki):
        zserver = make_zserver(pki, lifetime=10.0, grace_window=2.0)
        old_ticket = zserver.rotate(now=0.0)
        share, chlo_random, cw, _sw, _ops = self._client_keys(pki, old_ticket, 0.5)
        zserver.rotate(now=1.0)  # grace until 3.0
        got_cw, _got_sw, _trace = zserver.accept_zero_rtt(
            share, chlo_random, now=2.0,
            client_share_fp=share_fingerprint(old_ticket.long_term_share),
        )
        assert zserver.grace_accepts == 1
        # Keys agree: the server really used the previous share.
        assert got_cw.key == cw.key

    def test_stale_share_refused_outside_grace(self, pki):
        zserver = make_zserver(pki, lifetime=10.0, grace_window=2.0)
        old_ticket = zserver.rotate(now=0.0)
        share, chlo_random, _cw, _sw, _ops = self._client_keys(pki, old_ticket, 0.5)
        zserver.rotate(now=1.0)  # grace until 3.0
        with pytest.raises(ProtocolError, match="grace window"):
            zserver.accept_zero_rtt(
                share, chlo_random, now=4.0,
                client_share_fp=share_fingerprint(old_ticket.long_term_share),
            )
        assert zserver.grace_accepts == 0

    def test_stale_share_refused_when_no_grace_configured(self, pki):
        zserver = make_zserver(pki, lifetime=10.0, grace_window=0.0)
        old_ticket = zserver.rotate(now=0.0)
        share, chlo_random, _cw, _sw, _ops = self._client_keys(pki, old_ticket, 0.5)
        zserver.rotate(now=1.0)
        with pytest.raises(ProtocolError, match="stale"):
            zserver.accept_zero_rtt(
                share, chlo_random, now=1.5,
                client_share_fp=share_fingerprint(old_ticket.long_term_share),
            )

    def test_current_share_unaffected_by_grace(self, pki):
        zserver = make_zserver(pki, lifetime=10.0, grace_window=2.0)
        zserver.rotate(now=0.0)
        ticket = zserver.rotate(now=1.0)
        share, chlo_random, cw, _sw, _ops = self._client_keys(pki, ticket, 1.5)
        got_cw, _got_sw, _trace = zserver.accept_zero_rtt(
            share, chlo_random, now=2.0,
            client_share_fp=share_fingerprint(ticket.long_term_share),
        )
        assert got_cw.key == cw.key
        assert zserver.grace_accepts == 0

    def test_no_fingerprint_keeps_old_wire_behaviour(self, pki):
        # Clients that don't attach a fingerprint get the pre-grace
        # behaviour: the server derives against its current share.
        zserver = make_zserver(pki, lifetime=10.0, grace_window=2.0)
        ticket = zserver.rotate(now=0.0)
        share, chlo_random, cw, _sw, _ops = self._client_keys(pki, ticket, 0.5)
        got_cw, _got_sw, _trace = zserver.accept_zero_rtt(
            share, chlo_random, now=1.0
        )
        assert got_cw.key == cw.key


class TestTicketCache:
    def test_fresh_ticket_is_a_cache_hit(self, pki):
        ca, _chain, _key = pki
        loop = EventLoop()
        dns = InternalDns()
        rotator = TicketRotator(
            loop, make_zserver(pki, lifetime=100.0), dns, "svc"
        )
        rotator.start()
        cache = TicketCache(dns, (ca.certificate,), refresh_margin=10.0)

        def body():
            t1 = yield from cache.get("svc", loop)
            t2 = yield from cache.get("svc", loop)
            assert t1 is t2

        done = loop.process(body())
        loop.run(until=1.0)
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert cache.refreshes == 1 and cache.hits == 1
        rotator.stop()

    def test_refreshes_before_expiry(self, pki):
        ca, _chain, _key = pki
        loop = EventLoop()
        dns = InternalDns()
        zserver = make_zserver(pki, lifetime=10.0)
        rotator = TicketRotator(loop, zserver, dns, "svc")
        rotator.start()
        cache = TicketCache(dns, (ca.certificate,), refresh_margin=4.0)
        seen = []

        def body():
            t1 = yield from cache.get("svc", loop)  # not_after = 10
            seen.append(t1)
            # now 11: 11 + 4 > 10 -> stale; the rotator republished at 10,
            # so the refetch returns the freshly-rotated ticket.
            yield loop.timeout(11.0)
            t2 = yield from cache.get("svc", loop)
            seen.append(t2)

        done = loop.process(body())
        loop.run(until=20.0)
        rotator.stop()
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert cache.refreshes == 2
        assert seen[0] is not seen[1]
        assert seen[1].not_after > seen[0].not_after


class TestTicketCacheStalenessRace:
    """Regression: a refresh racing the record's TTL degrades, never raises.

    ``InternalDns._reap`` removes an expired record the moment any query
    touches the table; a :class:`TicketCache` refresh *inside* its
    ``refresh_margin`` can therefore find nothing to fetch while the
    cached ticket itself is still verifiable.  ``get`` must serve the
    cached ticket through that window and return ``None`` (1-RTT
    fallback) once the ticket expires too -- raising here would turn a
    routine replica failover into a client-visible error.
    """

    def _cache_with_expired_record(self, pki, loop):
        ca, _chain, _key = pki
        dns = InternalDns()
        zserver = make_zserver(pki, lifetime=10.0)
        # One publish with a TTL far shorter than the share lifetime:
        # the record dies at t=2, the ticket stays valid until t=10.
        rotator = TicketRotator(loop, zserver, dns, "svc", period=100.0, ttl=2.0)
        rotator.start()
        return dns, TicketCache(dns, (ca.certificate,), refresh_margin=8.0)

    def test_reaped_record_inside_margin_serves_cached_ticket(self, pki):
        loop = EventLoop()
        _dns, cache = self._cache_with_expired_record(pki, loop)
        got = []

        def body():
            t1 = yield from cache.get("svc", loop)  # fills the cache
            yield loop.timeout(5.0)
            # now=5: margin forces a refresh, but the record expired at 2
            # -- the cached ticket is still good until 10, so it is served.
            t2 = yield from cache.get("svc", loop)
            got.extend([t1, t2])

        done = loop.process(body())
        loop.run(until=6.0)
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert got[1] is got[0]
        assert cache.stale_served == 1
        assert cache.unavailable == 0

    def test_expired_ticket_returns_none_for_1rtt_fallback(self, pki):
        loop = EventLoop()
        _dns, cache = self._cache_with_expired_record(pki, loop)
        got = []

        def body():
            yield from cache.get("svc", loop)
            yield loop.timeout(11.0)  # past the ticket's own not_after
            got.append((yield from cache.get("svc", loop)))
            # The dead entry was dropped: the next miss is also clean.
            got.append((yield from cache.get("svc", loop)))

        done = loop.process(body())
        loop.run(until=12.0)
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert got == [None, None]
        assert cache.unavailable == 2
        assert cache.stale_served == 0

    def test_explicit_reap_then_get_never_raises(self, pki):
        loop = EventLoop()
        dns, cache = self._cache_with_expired_record(pki, loop)

        def body():
            yield from cache.get("svc", loop)
            yield loop.timeout(5.0)
            # Another name's publish reaps the expired "svc" record
            # first -- the exact interleaving the original bug hit.
            dns.publish("other", 1, loop.now, ttl=1.0)
            assert "svc" not in dns._records
            t = yield from cache.get("svc", loop)
            assert t is not None  # cached ticket still verifiable
            yield loop.timeout(6.0)  # now=11: nothing usable remains
            t = yield from cache.get("svc", loop)
            assert t is None

        done = loop.process(body())
        loop.run(until=12.0)
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert cache.stale_served == 1 and cache.unavailable == 1


class TestSharedShareRotator:
    def _zservers(self, pki, n, lifetime=10.0, grace=2.0):
        return [
            make_zserver(pki, lifetime=lifetime, grace_window=grace, seed=50 + i)
            for i in range(n)
        ]

    def test_all_replicas_hold_the_same_share(self, pki):
        loop = EventLoop()
        dns = InternalDns()
        zservers = self._zservers(pki, 3)
        rotator = SharedShareRotator(
            loop, zservers, dns, "svc", rng=random.Random(3), period=1.0
        )
        rotator.start()
        shares = {z.long_term.public_bytes() for z in zservers}
        assert len(shares) == 1
        ticket = dns.query("svc", loop.now)
        assert ticket.long_term_share in shares

    def test_cross_replica_ticket_acceptance(self, pki):
        ca, _chain, _key = pki
        loop = EventLoop()
        dns = InternalDns()
        zservers = self._zservers(pki, 2)
        SharedShareRotator(
            loop, zservers, dns, "svc", rng=random.Random(3), period=1.0
        ).start()
        ticket = dns.query("svc", loop.now)
        client = ZeroRttClient(ticket, (ca.certificate,), now=0.1,
                               rng=random.Random(4))
        share, chlo_random, cw, _sw, _ops = client.start()
        # Accepted by the *other* replica, not just the minter.
        got_cw, _got_sw, _trace = zservers[1].accept_zero_rtt(
            share, chlo_random, now=0.2,
            client_share_fp=share_fingerprint(ticket.long_term_share),
        )
        assert got_cw.key == cw.key

    def test_dead_replica_misses_install_until_resync(self, pki):
        loop = EventLoop()
        dns = InternalDns()
        zservers = self._zservers(pki, 2)
        up = {0: True, 1: False}
        rotator = SharedShareRotator(
            loop, zservers, dns, "svc", rng=random.Random(3), period=1.0,
            up_fn=lambda i: up[i],
        )
        rotator.start()
        assert rotator.missed_installs == 1
        assert zservers[1].long_term is None or (
            zservers[1].long_term.public_bytes()
            != rotator.current.public_bytes()
        )
        up[1] = True
        rotator.resync(zservers[1])
        assert rotator.resyncs == 1
        assert (zservers[1].long_term.public_bytes()
                == rotator.current.public_bytes())
        # Idempotent: a second resync is a no-op.
        rotator.resync(zservers[1])
        assert rotator.resyncs == 1

    def test_all_replicas_down_publishes_nothing(self, pki):
        loop = EventLoop()
        dns = InternalDns()
        rotator = SharedShareRotator(
            loop, self._zservers(pki, 2), dns, "svc",
            rng=random.Random(3), period=1.0, up_fn=lambda i: False,
        )
        rotator.start()
        assert rotator.rotations == 0
        assert rotator.missed_installs == 2
        with pytest.raises(ProtocolError, match="no DNS record"):
            dns.query("svc", loop.now)

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ProtocolError):
            SharedShareRotator(EventLoop(), [], InternalDns(), "svc")


class TestDnsLifecycle:
    """Satellites: schedulable lookup latency + expired-record reaping."""

    def test_resolve_charges_lookup_latency(self):
        loop = EventLoop()
        dns = InternalDns(lookup_latency=50e-6)
        dns.publish("svc", "payload", now=0.0, ttl=100.0)
        at = {}

        def body():
            result = yield from dns.resolve("svc", loop)
            at["t"] = loop.now
            assert result == "payload"

        done = loop.process(body())
        loop.run(until=1.0)
        assert done.triggered and done.ok, getattr(done, "value", None)
        assert at["t"] == pytest.approx(50e-6)

    def test_zero_latency_resolve_is_synchronous(self):
        loop = EventLoop()
        dns = InternalDns()  # lookup_latency = 0: prefetched-ticket path
        dns.publish("svc", "payload", now=0.0, ttl=100.0)

        def body():
            result = yield from dns.resolve("svc", loop)
            assert loop.now == 0.0  # no events were scheduled
            return result

        done = loop.process(body())
        loop.run(until=1.0)
        assert done.ok and done.value == "payload"

    def test_expired_record_raises(self):
        dns = InternalDns()
        dns.publish("svc", "payload", now=0.0, ttl=1.0)
        with pytest.raises(ProtocolError, match="expired"):
            dns.query("svc", now=5.0)

    def test_missing_record_raises(self):
        dns = InternalDns()
        with pytest.raises(ProtocolError, match="no DNS record"):
            dns.query("svc", now=0.0)

    def test_query_reaps_expired_records(self):
        dns = InternalDns()
        dns.publish("old", 1, now=0.0, ttl=1.0)
        dns.publish("fresh", 2, now=0.0, ttl=100.0)
        assert dns.query("fresh", now=5.0) == 2
        assert dns.expired_reaped == 1
        assert "old" not in dns._records

    def test_publish_reaps_expired_records(self):
        dns = InternalDns()
        dns.publish("old", 1, now=0.0, ttl=1.0)
        dns.publish("other", 2, now=5.0, ttl=1.0)
        assert dns.expired_reaped == 1
        assert "old" not in dns._records and "other" in dns._records

    def test_records_gauge(self):
        bed = Testbed.back_to_back()
        obs = bed.enable_obs()
        dns = InternalDns()
        dns.bind_obs(obs, name="dns")
        dns.publish("a", 1, now=0.0, ttl=1.0)
        dns.publish("b", 2, now=0.0, ttl=100.0)
        snap = obs.metrics.snapshot()
        assert snap["dns.records"] == 2
        dns.query("b", now=5.0)  # reaps "a"
        snap = obs.metrics.snapshot()
        assert snap["dns.records"] == 1
        assert snap["dns.queries"] == 1
        assert snap["dns.expired_reaped"] == 1
