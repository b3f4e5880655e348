"""Leaf-spine (two-tier Clos) fabric with deterministic flow-hash ECMP.

With one rack this is the star bed (``StarTestbed.star``): every host
behind one switch.  Datacenter transports are evaluated on multi-rack
fabrics where cross-rack traffic load-balances over several spine
switches (Homa's evaluation topology, and the environment the paper's
§7 fabric-compatibility argument assumes).  This module wires ``N``
racks of hosts to per-rack leaf :class:`~repro.net.switch.Switch`
instances and ``S`` spine switches:

- every host hangs off its rack's leaf via a :class:`FabricPort` access
  link (own serialisation, like a NIC cable);
- every leaf has one *trunk* port up to each spine, and every spine one
  trunk down to each leaf — trunks are ordinary switch egress ports, so
  strict-priority queues and bounded buffers apply at every hop, and
  NDP trimming does too when the bed enables it (``trimming=True``;
  off by default, so an overflowing port drops);
- leaves route intra-rack traffic straight to the destination port and
  spread cross-rack traffic over the spines by hashing the flow 5-tuple
  (ECMP).  The hash is a pure function of the flow and the fabric's
  ``ecmp_salt``, so every packet of a flow rides one spine — no
  cross-path reordering can break SMT's composite-seqno record
  reassembly — and the whole spread is replayable.

The same class is one time domain's slice of a sharded cluster
(``repro.sim.shard``): built over a rack subset and then :meth:`cut
<ClosFabric.cut>`.  The fabric decomposes exactly along rack lines —
contention happens only at egress ports, and a spine's egress port
toward rack ``r`` carries *only* rack-``r`` traffic, so a per-domain
shard of every spine holding just the local racks' down-trunks behaves
identically to the shared switch.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import SimulationError
from repro.net.addressing import flow_hash
from repro.net.fabric import HOST_LINK_DELAY, FabricPort
from repro.net.packet import Packet
from repro.net.switch import PortKey, Switch
from repro.sim.event_loop import EventLoop
from repro.units import GBPS


def ecmp_hash(packet: Packet, salt: int = 0) -> int:
    """Deterministic per-flow hash: equal for every packet of one flow."""
    ip = packet.ip
    t = packet.transport
    h = flow_hash(ip.src_addr, t.src_port, ip.dst_addr, t.dst_port, ip.proto)
    if salt:
        # Mix the salt in nonlinearly (murmur-style finalizer): a plain
        # XOR would flip the same bits of every flow's hash, merely
        # permuting spine labels instead of reshuffling flows.
        h = (h ^ (salt * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 29
    return h


#: Propagation delay of a leaf-spine trunk: the sharded runner's lookahead.
TRUNK_DELAY = 0.5e-6

#: Boundary emit callback: (dest_domain, spine, packet, departure, arrival).
ShardEmit = Callable[[int, int, Packet, float, float], None]


class ClosFabric:
    """``num_racks`` leaves x ``num_spines`` spines, ECMP across spines.

    ``racks`` builds only that subset of the leaves (and, on every spine,
    only the down-trunks toward them): one time domain's slice, which
    must then be :meth:`cut`.
    """

    def __init__(
        self,
        loop: EventLoop,
        num_racks: int,
        num_spines: int,
        bandwidth_bps: float = 100 * GBPS,
        trunk_bandwidth_bps: Optional[float] = None,
        mtu: int = 1500,
        buffer_bytes: int = 128 * 1024,
        trunk_buffer_bytes: Optional[int] = None,
        trimming: bool = False,
        ecmp_salt: int = 0,
        racks: Optional[Sequence[int]] = None,
    ):
        if num_racks < 1 or num_spines < 1:
            raise SimulationError("a Clos fabric needs >= 1 rack and >= 1 spine")
        racks = range(num_racks) if racks is None else racks
        if not racks or not all(0 <= r < num_racks for r in racks):
            raise SimulationError(f"racks {list(racks)} not within {num_racks}")
        self.loop = loop
        self.num_racks = num_racks
        self.num_spines = num_spines
        self.bandwidth = bandwidth_bps
        self.trunk_bandwidth = (
            trunk_bandwidth_bps if trunk_bandwidth_bps is not None else bandwidth_bps
        )
        self.mtu = mtu
        self.ecmp_salt = ecmp_salt
        trunk_buffer = (
            trunk_buffer_bytes if trunk_buffer_bytes is not None else buffer_bytes
        )
        #: Leaf switch per rack built here (all of them unless ``racks``).
        self.leaves = {
            rack: Switch(
                loop, bandwidth_bps=bandwidth_bps, delay=HOST_LINK_DELAY,
                buffer_bytes=buffer_bytes, trimming=trimming,
            )
            for rack in racks
        }
        self.spines = [
            Switch(
                loop, bandwidth_bps=self.trunk_bandwidth, delay=TRUNK_DELAY,
                buffer_bytes=trunk_buffer, trimming=trimming,
            )
            for _ in range(num_spines)
        ]
        # Packets each leaf steered up to each spine: {rack: [spine]}.
        self.spine_packets = {rack: [0] * num_spines for rack in racks}
        # Failure-domain state: which spines/leaves are alive, and which
        # spines the leaves' ECMP tables currently hash over.  The two are
        # distinct on purpose -- between a spine dying and the fabric
        # reconverging, leaves keep steering flows into the blackhole,
        # exactly the window production incidents are about.
        self._spine_up = [True] * num_spines
        self._leaf_up = [True] * num_racks
        self._routing_spines: tuple[int, ...] = tuple(range(num_spines))
        self.reconvergences = 0
        self._cut = False
        self._rack_of: dict[int, int] = {}
        self._ports: dict[int, FabricPort] = {}
        # Trunk port keys, formatted once rather than per routed packet.
        self._spine_ports = tuple(f"spine{s}" for s in range(num_spines))
        self._rack_ports = tuple(f"rack{r}" for r in range(num_racks))
        for rack, leaf in self.leaves.items():
            for s, spine in enumerate(self.spines):
                leaf.add_trunk(
                    self._spine_ports[s], spine.inject,
                    bandwidth_bps=self.trunk_bandwidth, delay=TRUNK_DELAY,
                    buffer_bytes=trunk_buffer,
                )
                spine.add_trunk(
                    self._rack_ports[rack], leaf.inject,
                    bandwidth_bps=self.trunk_bandwidth, delay=TRUNK_DELAY,
                    buffer_bytes=trunk_buffer,
                )
            leaf.set_router(self._leaf_router(rack))
        for spine in self.spines:
            spine.set_router(self._spine_router)

    # -- topology ----------------------------------------------------------------

    def attach_host(self, rack: int, addr: int) -> FabricPort:
        """Register ``addr`` in ``rack``; returns its NIC-facing access port."""
        leaf = self.leaves.get(rack)
        if leaf is None:
            raise SimulationError(f"rack {rack} out of range")
        if addr in self._ports:
            raise SimulationError(f"address {addr} already attached")
        self._rack_of[addr] = rack
        port = self._ports[addr] = FabricPort(self, addr, leaf)
        return port

    def port(self, addr: int) -> FabricPort:
        """The access port of an already-attached host."""
        port = self._ports.get(addr)
        if port is None:
            raise SimulationError(f"address {addr} not attached")
        return port

    def rack_of(self, addr: int) -> int:
        rack = self._rack_of.get(addr)
        if rack is None:
            raise SimulationError(f"no rack for destination {addr}")
        return rack

    # -- failure domains ----------------------------------------------------------

    def fail_spine(self, spine: int) -> None:
        """Kill one spine switch.  Leaves keep hashing flows to it until
        :meth:`reconverge` updates their ECMP tables -- the in-between
        packets blackhole at the dead switch (counted in its totals)."""
        self._check_domain("spine", spine, self.num_spines)
        self._spine_up[spine] = False
        self.spines[spine].set_down(True)

    def restore_spine(self, spine: int) -> None:
        """Revive a spine; call :meth:`reconverge` to route over it again."""
        self._check_domain("spine", spine, self.num_spines)
        self._spine_up[spine] = True
        self.spines[spine].set_down(False)

    def fail_leaf(self, rack: int) -> None:
        """Kill a rack's leaf: total blackout for every host behind it,
        in both directions (hosts inject into a dead switch; spines trunk
        into it)."""
        self._check_domain("rack", rack, self.num_racks)
        self._leaf_up[rack] = False
        self.leaves[rack].set_down(True)

    def restore_leaf(self, rack: int) -> None:
        self._check_domain("rack", rack, self.num_racks)
        self._leaf_up[rack] = True
        self.leaves[rack].set_down(False)

    def reconverge(self, salt: Optional[int] = None) -> tuple[int, ...]:
        """Reprogram every leaf's ECMP table to hash over live spines only.

        Models the routing plane converging after detection: flows whose
        hash previously landed on a dead spine migrate to a survivor,
        while flows on surviving spines are untouched *iff* the survivor
        set keeps their index (guaranteed for salt-stable rehash only when
        the hash is reduced modulo the live set -- which is what this
        does).  An explicit ``salt`` additionally re-salts the hash,
        reshuffling all flows.  Returns the new routing set.
        """
        self._require_uncut()
        live = self.live_spines()
        if not live:
            raise SimulationError("cannot reconverge: no live spines")
        if salt is not None:
            self.ecmp_salt = salt
        self._routing_spines = live
        self.reconvergences += 1
        return live

    def live_spines(self) -> tuple[int, ...]:
        """Spines currently alive (independent of the routing tables)."""
        return tuple(s for s in range(self.num_spines) if self._spine_up[s])

    def routing_spines(self) -> tuple[int, ...]:
        """Spines the leaves' ECMP tables currently hash over."""
        return self._routing_spines

    def spine_up(self, spine: int) -> bool:
        self._check_domain("spine", spine, self.num_spines)
        return self._spine_up[spine]

    def leaf_up(self, rack: int) -> bool:
        self._check_domain("rack", rack, self.num_racks)
        return self._leaf_up[rack]

    def spine_for(self, packet: Packet) -> int:
        """The spine index the current ECMP tables steer this flow to."""
        spines = self._routing_spines
        return spines[ecmp_hash(packet, self.ecmp_salt) % len(spines)]

    def _require_uncut(self) -> None:
        if self._cut:
            # A slice holds one shard of each spine and some of the
            # leaves: killing "the switch" here would kill a fraction of it.
            raise SimulationError(
                "failure domains need the whole fabric on one loop; "
                "this one is cut into time domains"
            )

    def _check_domain(self, kind: str, index: int, count: int) -> None:
        self._require_uncut()
        if not 0 <= index < count:
            raise SimulationError(f"{kind} {index} out of range")

    # -- time-domain boundary (repro.sim.shard) -------------------------------------

    def cut(
        self,
        domain: int,
        domain_of_rack: Sequence[int],
        rack_of_addr: dict[int, int],
        emit: ShardEmit,
    ) -> None:
        """Make this fabric time domain ``domain``'s slice of the cluster.

        The cut runs through every leaf up-trunk at serialisation end:
        the trunk's propagation delay happens in the destination domain,
        which makes ``TRUNK_DELAY`` the synchronization lookahead.
        ``rack_of_addr`` is the cluster-wide address map (leaves route to
        racks built in other domains); a packet bound for one of those
        leaves through ``emit`` and reaches the far spine shard through
        that fabric's :meth:`deliver`.  Every float the schedule sees
        (departure, arrival, queueing) comes from the same expressions as
        on an uncut fabric, and one ``call_later`` becomes one
        ``call_at``, so an N-domain run replays the 1-domain event times
        and event count bit for bit.
        """
        self._cut = True
        self._rack_of = rack_of_addr
        loop = self.loop

        def uplink_sender(spine: int):
            inject = self.spines[spine].inject

            def sender(packet: Packet, arrival: float) -> None:
                dest = domain_of_rack[rack_of_addr[packet.ip.dst_addr]]
                if dest == domain:
                    loop.call_at(arrival, inject, packet)
                else:
                    emit(dest, spine, packet, loop.now, arrival)

            return sender

        for leaf in self.leaves.values():
            for spine in range(self.num_spines):
                leaf.set_trunk_boundary(self._spine_ports[spine], uplink_sender(spine))

    def deliver(self, spine: int, packet: Packet, arrival: float) -> None:
        """Inject a packet another domain emitted into the local spine shard."""
        self.loop.call_at(arrival, self.spines[spine].inject, packet)

    # -- routing ------------------------------------------------------------------

    def _leaf_router(self, rack: int):
        spine_ports = self._spine_ports

        def route(packet: Packet) -> PortKey:
            dst = packet.ip.dst_addr
            home = self.rack_of(dst)
            if home == rack:
                return dst
            spines = self._routing_spines
            spine = spines[ecmp_hash(packet, self.ecmp_salt) % len(spines)]
            self.spine_packets[rack][spine] += 1
            return spine_ports[spine]

        return route

    def _spine_router(self, packet: Packet) -> PortKey:
        return self._rack_ports[self.rack_of(packet.ip.dst_addr)]

    # -- accounting ---------------------------------------------------------------

    def spine_spread(self) -> list[int]:
        """Upward packets per spine, summed over the leaves built here."""
        return [
            sum(per_rack[s] for per_rack in self.spine_packets.values())
            for s in range(self.num_spines)
        ]

    def stats(self) -> dict:
        """Aggregated fabric counters (drops/trims per tier + ECMP spread)."""
        out: dict = {}
        for tier, switches in (("leaf", self.leaves.values()), ("spine", self.spines)):
            total = out[tier] = dict.fromkeys(
                ("dropped", "trimmed", "queued", "blackholed"), 0
            )
            for sw in switches:
                for field, value in sw.totals().items():
                    total[field] += value
        out["spine_spread"] = self.spine_spread()
        return out
