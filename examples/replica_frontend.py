#!/usr/bin/env python3
"""Replicated-service front end: do 0-RTT tickets survive replication?

The paper distributes the 0-RTT long-term share through the internal
DNS under one service name (§4.5.2) -- which quietly assumes one name
maps to one server.  This example puts three replicas behind that name
(service discovery + L4 balancing, ``repro.lb``) and runs the same
session-open workload twice:

- **shared share** -- a ``SharedShareRotator`` installs one long-term
  ECDH share on every replica and publishes one service-wide ticket:
  a ticket minted by replica A opens replica B with zero handshake
  round trips, and both sides derive identical traffic keys;
- **per-replica shares** -- each replica rotates its own share (the
  obvious-but-wrong deployment): every cross-replica 0-RTT attempt is
  rejected and silently falls back to a full 1-RTT handshake.

Then the DNS-TTL staleness race across a scripted replica crash --
where every window degrades gracefully (cached ticket, then 1-RTT) and
none raises.

Run:  python examples/replica_frontend.py
"""

from repro.bench.frontend import _run_portability, _run_staleness

OPENS = 12


def main() -> None:
    print("replicated front end: 3 replicas behind one DNS name, "
          f"{OPENS} session opens through a consistent-hash balancer\n")

    for mode in ("shared", "per-replica"):
        r = _run_portability(mode == "shared", OPENS)
        c = r["counters"]
        print(f"{mode:>12} shares: {c.opens} opens, "
              f"{c.zero_rtt_accepts} x 0-RTT, "
              f"{c.cross_accepts}/{c.cross_attempts} cross-replica accepted, "
              f"{c.fallbacks_1rtt} x 1-RTT fallback, "
              f"{c.key_mismatches} key mismatches")
        if mode == "shared":
            print(f"{'':>20} drain: {r['moved']}/{r['pre_drain']} sessions "
                  f"migrated off the busiest replica, {r['left']} left behind")
    shared = _run_portability(True, OPENS)["counters"]
    per = _run_portability(False, OPENS)["counters"]
    assert shared.cross_accepts == shared.cross_attempts > 0
    assert per.cross_accepts == 0 and per.fallbacks_1rtt == per.cross_attempts
    print("\n-> one shared share makes tickets portable (100% cross-replica")
    print("   0-RTT); per-replica shares degrade DNS-distributed 0-RTT into")
    print("   session affinity (0%), one extra RTT per misrouted open.\n")

    stale = _run_staleness()
    c, cache, rot = stale["counters"], stale["cache"], stale["rotator"]
    print(f"TTL-vs-crash race: {c.opens} opens across a replica crash: "
          f"{c.zero_rtt_accepts} x 0-RTT, {c.fallbacks_1rtt} x 1-RTT, "
          f"{cache.stale_served} stale-served, {cache.unavailable} unavailable,")
    print(f"  {rot.missed_installs} missed install while down, "
          f"{stale['revived_rejects']} rejects before resync, "
          f"{rot.resyncs} resync, {len(stale['failures'])} unhandled errors")
    assert not stale["failures"]
    assert c.zero_rtt_accepts + c.fallbacks_1rtt == c.opens
    print("-> every staleness window degraded (cached ticket, then 1-RTT);")
    print("   nothing raised, and 0-RTT recovered after the resync.")
    print("OK: replicated front end kept every open alive.")


if __name__ == "__main__":
    main()
