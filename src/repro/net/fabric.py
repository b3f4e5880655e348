"""A host's attachment point to a switched fabric.

The paper's testbed is back-to-back, but message-based transports are
designed for fan-in (incast) traffic; this adapter lets any number of
hosts share a :class:`repro.net.switch.Switch` through the same interface
NICs use for point-to-point links.  :class:`repro.net.clos.ClosFabric`
hands one out per host -- including to the one-rack star bed
(``StarTestbed.star``) built for incast experiments with NDP-style packet
trimming, which SMT is compatible with because its transport metadata
stays in plaintext (paper §7).
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Egress, LossFn, Receiver
from repro.net.packet import Packet
from repro.net.switch import Switch

#: Propagation delay of a host's access link, both directions.
HOST_LINK_DELAY = 0.5e-6


class FabricPort:
    """A host's attachment point: looks like a Link to the NIC.

    ``fabric`` may be any object exposing ``loop``, ``mtu`` and
    ``bandwidth``; ``switch`` is the edge switch this host hangs off (its
    leaf in :class:`repro.net.clos.ClosFabric`).
    """

    def __init__(self, fabric, addr: int, switch: Switch):
        self._addr = addr
        self._switch = switch
        self.mtu = fabric.mtu
        # Host -> switch egress with its own serialisation.
        self._egress = Egress(
            fabric.loop, fabric.bandwidth, HOST_LINK_DELAY, switch.inject
        )

    def attach(self, side: str, receiver: Receiver) -> None:
        """Register this host's packet handler (side is ignored)."""
        self._switch.attach(self._addr, receiver)

    def send(self, side: str, packet: Packet) -> None:
        self._egress.send(packet, self.mtu)

    def send_burst(self, side: str, packets: list[Packet]) -> None:
        """Transmit a same-instant burst from this host via one callback."""
        egress = self._egress
        mtu = self.mtu
        for packet in packets:
            egress.send(packet, mtu)

    def set_loss_fn(self, side: str, loss_fn: Optional[LossFn]) -> None:
        self._egress.loss_fn = loss_fn

    def inject_faults(self, side: str, injector) -> None:
        """Adversarial conditions on this host's uplink (host -> switch).

        Faults toward the host (switch -> host) install on the switch side
        via :meth:`repro.net.switch.Switch.inject_faults`.
        """
        self._egress.fault_injector = injector

    def stats(self, side: str) -> dict:
        return self._egress.stats()
