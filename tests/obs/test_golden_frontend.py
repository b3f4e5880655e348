"""Golden trace for one deterministic front-end failover.

One fixed scenario -- two replicas behind one DNS name with a shared
long-term share, replica 1 crashing at 5 ms and reviving at 14 ms
(resynced 4 ms later) while session opens, each a real SMT handshake,
flow through the balancer, then a drain of replica 0 -- is locked down
three ways:

- the ``lb``/``dns`` span log: every ``lb.open`` with its picked
  replica, the ``lb.fallback.1rtt`` spans inside the outage, the
  ``lb.replica.down`` span bracketing the health-gated membership gap,
  the final ``lb.drain``, and each ``dns.lookup`` the opens charged;
- the ``lb.*``/``dns.*`` metrics snapshot: opens, 0-RTT accepts,
  fallbacks, membership changes, health transitions, resolver counters;
- the registry membership log: register/down/up at exact virtual times.

Regenerate after an intentional change::

    PYTHONPATH=src python -m pytest tests/obs/test_golden_frontend.py --update-goldens
"""

import json
import random

from repro.bench.frontend import TIMELINE_SCALE
from repro.core.zero_rtt import ZeroRttServer
from repro.crypto.ca import CertificateAuthority
from repro.crypto.cert import KEY_ALG_ECDSA
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.ctrl import CtrlConfig, SharedShareRotator, TicketCache
from repro.dns.resolver import InternalDns
from repro.lb import (
    ConnectionDrainer,
    HealthChecker,
    ReplicaServer,
    ServiceFrontend,
    ServiceRegistry,
)
from repro.testbed import ClosTestbed
from repro.units import USEC

from tests.obs.test_golden_trace import check_golden

SERVICE = "svc.golden.internal"
#: The bench's factor: each open runs a real handshake (0.7-1.6 ms).
SCALE = TIMELINE_SCALE
PERIOD = 600 * USEC * SCALE
TTL = 150 * USEC * SCALE
LIFETIME = 400 * USEC * SCALE
MARGIN = 200 * USEC * SCALE
CRASH_AT = 250 * USEC * SCALE
REVIVE_AT = 700 * USEC * SCALE
RESYNC_DELAY = 200 * USEC * SCALE
OPEN_STEP = 80 * USEC * SCALE
HORIZON = 1250 * USEC * SCALE
FIRST_OPEN = 10 * USEC * SCALE
TAIL = 300 * USEC * SCALE


def render_lb_spans(obs) -> str:
    """The ``lb``/``dns`` span log, one line per span in begin order."""
    lines = []
    for s in obs.tracer.export():
        if s["layer"] not in ("lb", "dns"):
            continue
        dur = (
            "open" if s["end"] is None
            else f"{(s['end'] - s['start']) * 1e6:.3f}us"
        )
        attrs = " ".join(f"{k}={v}" for k, v in s["attrs"].items())
        lines.append(
            f"[{s['layer']}] {s['name']} @{s['start'] * 1e6:.3f}us {dur}"
            + (f" {attrs}" if attrs else "")
        )
    return "\n".join(lines)


def run_failover():
    """The canned failover; returns (obs, frontend, registry, checker)."""
    bed = ClosTestbed.leaf_spine(
        num_racks=2, hosts_per_rack=2, num_spines=2, seed=5
    )
    obs = bed.enable_obs()
    bed.enable_ctrl(config=CtrlConfig(), seed=2025)
    rng = random.Random(1)
    ca = CertificateAuthority("dc-root", rng)
    key = EcdsaKeyPair.generate(rng)
    chain = ca.chain_for(ca.issue(SERVICE, KEY_ALG_ECDSA, key.public_bytes()))
    roots = (ca.certificate,)
    dns = InternalDns(lookup_latency=2e-6)
    dns.bind_obs(obs)
    replica_indices = [2, 3]
    replica_hosts = [bed.hosts[i] for i in replica_indices]
    zservers = [
        ZeroRttServer(
            SERVICE, chain, key, random.Random(100 + i),
            lifetime=LIFETIME, grace_window=LIFETIME / 2,
        )
        for i in range(len(replica_hosts))
    ]
    replicas = {
        h.addr: ReplicaServer(h, z, plane=bed.ctrl_planes[idx])
        for h, z, idx in zip(replica_hosts, zservers, replica_indices)
    }
    controller = bed.domain_controller()
    rotator = SharedShareRotator(
        bed.loop, zservers, dns, SERVICE,
        rng=random.Random(9), period=PERIOD, ttl=TTL,
        up_fn=lambda i: controller.is_host_up(replica_hosts[i].addr),
    )
    rotator.start()
    registry = ServiceRegistry(bed.loop, dns, SERVICE)
    for h in replica_hosts:
        registry.register(h.addr)
    registry.start()
    registry.bind_obs(obs)
    checker = HealthChecker(bed.loop, registry, interval=20e-6)
    for h in replica_hosts:
        checker.watch(h.addr, lambda addr=h.addr: controller.is_host_up(addr))
    checker.start()
    checker.bind_obs(obs)
    cache = TicketCache(dns, roots, refresh_margin=MARGIN)
    fe = ServiceFrontend(
        bed.hosts[0], registry, replicas, cache, roots,
        minter_rid=replica_hosts[0].addr, seed=17,
    )
    fe.bind_obs(obs)
    drainer = ConnectionDrainer(bed.loop, fe)
    controller.on_replica_revive(
        lambda idx: bed.loop.timer_later(
            RESYNC_DELAY, rotator.resync,
            zservers[replica_indices.index(idx)],
        )
    )
    bed.loop.timer_later(CRASH_AT, controller.replica_crash, replica_indices[1])
    bed.loop.timer_later(REVIVE_AT, controller.replica_revive, replica_indices[1])

    def client():
        thread = bed.hosts[0].app_thread(0)
        k = 0
        yield bed.loop.timeout(FIRST_OPEN)
        while bed.loop.now < HORIZON:
            yield from fe.open_session(thread, f"key-{k % 6}")
            k += 1
            yield bed.loop.timeout(OPEN_STEP)
        # Failover survived; drain the minter to close the scenario.
        drainer.drain(replica_hosts[0].addr)

    done = bed.loop.process(client())
    bed.run(until=HORIZON + TAIL)
    assert done.triggered and done.ok, getattr(done, "value", None)
    rotator.stop()
    registry.stop()
    checker.stop()
    controller.stop()
    return obs, fe, registry, checker


def lb_metrics(obs) -> dict:
    snap = obs.snapshot()["metrics"]
    return {
        k: v for k, v in sorted(snap.items())
        if k.startswith(("lb.", "dns."))
    }


class TestFrontendGoldens:
    def test_span_log(self, update_goldens):
        obs, _fe, _registry, _checker = run_failover()
        check_golden(
            "frontend_spans.txt", render_lb_spans(obs) + "\n", update_goldens
        )

    def test_metrics_snapshot(self, update_goldens):
        obs, _fe, _registry, _checker = run_failover()
        text = json.dumps(lb_metrics(obs), indent=1) + "\n"
        check_golden("frontend_metrics.json", text, update_goldens)

    def test_membership_log(self, update_goldens):
        _obs, _fe, registry, _checker = run_failover()
        check_golden(
            "frontend_membership.txt", registry.render_log() + "\n",
            update_goldens,
        )

    def test_failover_actually_exercised(self):
        """The goldens are only meaningful if the outage left its marks."""
        obs, fe, registry, checker = run_failover()
        spans = [s for s in obs.tracer.spans() if s.layer == "lb"]
        names = {s.name for s in spans}
        assert {"lb.open", "lb.fallback.1rtt", "lb.replica.down",
                "lb.drain"} <= names, names
        down = [s for s in spans if s.name == "lb.replica.down"]
        assert len(down) == 1 and down[0].end is not None
        assert down[0].end > down[0].start >= CRASH_AT
        assert checker.transitions == 2
        assert fe.counters.zero_rtt_accepts > 0
        assert fe.counters.fallbacks_1rtt > 0
        assert any(s.layer == "dns" for s in obs.tracer.spans())
