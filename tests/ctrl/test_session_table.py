"""SessionTable: LRU eviction, busy pinning, admission backpressure."""

import random

import pytest

from repro.core.endpoint import SmtEndpoint
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.ctrl import ControlPlane, CtrlConfig, SessionTable
from repro.errors import ProtocolError
from repro.testbed import Testbed
from repro.tls.handshake import HandshakeConfig, ServerCredentials


def make_table(**kw):
    kw.setdefault("capacity", 3)
    return SessionTable(**kw)


def never_busy():
    return False


class TestLru:
    def test_insert_within_capacity(self):
        table = make_table()
        for i in range(3):
            table.insert(("s", i), on_evict=lambda: None, busy=never_busy)
        assert len(table) == 3
        assert table.evicted_lru == 0

    def test_overflow_evicts_oldest(self):
        table = make_table()
        evicted = []
        for i in range(5):
            table.insert(
                ("s", i),
                on_evict=lambda i=i: evicted.append(i),
                busy=never_busy,
            )
        assert evicted == [0, 1]
        assert ("s", 0) not in table and ("s", 4) in table
        assert table.evicted_lru == 2

    def test_touch_rescues_from_eviction(self):
        table = make_table()
        evicted = []
        for i in range(3):
            table.insert(
                ("s", i),
                on_evict=lambda i=i: evicted.append(i),
                busy=never_busy,
            )
        table.touch(("s", 0))  # 1 is now the LRU candidate
        table.insert(("s", 3), on_evict=lambda: None, busy=never_busy)
        assert evicted == [1]

    def test_busy_entry_skipped(self):
        table = make_table()
        evicted = []
        table.insert(("s", 0), lambda: evicted.append(0), busy=lambda: True)
        table.insert(("s", 1), lambda: evicted.append(1), busy=never_busy)
        table.insert(("s", 2), lambda: evicted.append(2), busy=never_busy)
        table.insert(("s", 3), lambda: evicted.append(3), busy=never_busy)
        assert evicted == [1]  # oldest, but 0 is pinned busy

    def test_all_busy_raises(self):
        table = make_table(capacity=2)
        table.insert(("s", 0), lambda: None, busy=lambda: True)
        table.insert(("s", 1), lambda: None, busy=lambda: True)
        with pytest.raises(ProtocolError):
            table.insert(("s", 2), lambda: None, busy=never_busy)
        assert table.admission_refused == 1

    def test_deterministic_under_fixed_seed(self):
        # Same seeded insert/touch schedule -> identical eviction order.
        def run(seed):
            rng = random.Random(seed)
            table = make_table(capacity=4)
            evicted = []
            for i in range(32):
                if rng.random() < 0.3 and len(table):
                    table.touch(("s", rng.randrange(i)))
                table.insert(
                    ("s", i),
                    on_evict=lambda i=i: evicted.append(i),
                    busy=never_busy,
                )
            return evicted

        assert run(1234) == run(1234)
        assert run(1234) != run(99)  # the schedule, not the table, is random


class TestAdmission:
    def test_admit_with_room(self):
        table = make_table(capacity=1)
        assert table.admit()

    def test_admit_full_but_evictable(self):
        table = make_table(capacity=1)
        table.insert(("s", 0), lambda: None, busy=never_busy)
        assert table.admit()

    def test_refuse_full_and_busy(self):
        table = make_table(capacity=1)
        table.insert(("s", 0), lambda: None, busy=lambda: True)
        assert not table.admit()
        assert table.admission_refused == 1


class TestEndpointBackpressure:
    def test_refused_handshake_raises_at_client(self):
        # A server whose table is saturated with busy sessions refuses the
        # CHLO flight; the client sees a ProtocolError, not a hang.
        rng = random.Random(11)
        ca = CertificateAuthority("dc-root", rng)
        key = EcdsaKeyPair.generate(rng)
        leaf = ca.issue("server", KEY_ALG_ECDSA, key.public_bytes())
        creds = ServerCredentials(chain=ca.chain_for(leaf), signing_key=key)
        roots = (ca.certificate,)

        bed = Testbed.back_to_back()
        ctrl = ControlPlane(
            bed.server,
            random.Random(12),
            config=CtrlConfig(session_capacity=1, prefill=False),
        )
        # Saturate: one pinned-busy entry fills the table for good.
        ctrl.table.insert(("pin",), lambda: None, busy=lambda: True)

        sep = SmtEndpoint(bed.server, 7000, ctrl=ctrl)
        cep = SmtEndpoint(bed.client, bed.client.alloc_port())
        sep.listen(
            bed.server.app_thread(0), creds,
            lambda: HandshakeConfig(rng=random.Random(13), trust_roots=roots),
        )

        outcome = {}

        def client():
            thread = bed.client.app_thread(0)
            try:
                yield from cep.connect(
                    thread, bed.server.addr, 7000,
                    HandshakeConfig(rng=random.Random(14), server_name="server",
                                    trust_roots=roots),
                )
            except ProtocolError as exc:
                outcome["error"] = str(exc)

        done = bed.loop.process(client())
        bed.loop.run(until=1.0)
        assert done.triggered and done.ok
        assert "refused" in outcome["error"]
        assert ctrl.table.admission_refused >= 1
