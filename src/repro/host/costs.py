"""Calibrated per-operation CPU costs (virtual time).

Every constant is in **seconds** (use the helpers in :mod:`repro.units`).
The table models a Xeon Silver 4314-class core (the paper's testbed) and
is calibrated so that the *relative* results the paper reports emerge from
the mechanisms -- the paper's own primary metric is "the protocol and
encryption overhead added to the base unencrypted variant" (§5), not
absolute microseconds.

Calibration anchors (see EXPERIMENTS.md for the measured outcomes):

- Homa/SMT RPC throughput saturates around 700 K RPC/s because a single
  flow 5-tuple RSS-hashes every packet of the session to **one** softirq
  core (§5.2 "constrained ... by the softirq thread").  With
  ``homa_rx_per_message + homa_rx_per_packet ~= 1.4 us`` that ceiling is
  ~700 K for single-packet RPCs.
- TCP spreads its 12 connections across the 4 softirq cores but pays a
  much longer per-RPC stack path (socket lookup, ACK clocking, epoll
  wakeup chain, qdisc).  The decomposition below is plausible for Linux
  but is jointly calibrated to reproduce the paper's measured kTLS : SMT
  throughput ratios at 64 B / 1 KB (SMT ahead 16-41 %) and 8 KB (kTLS
  ahead 3-15 %).
- AES-128-GCM software crypto at ~0.11 ns/B (VAES-class, ~9 GB/s) plus a
  per-record setup cost; the paper observes that for large messages the
  bottleneck is data copy, not encryption (§5.1), which holds here since
  copies cost ~0.25 ns/B across the reassembly + delivery path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import NSEC, USEC


@dataclass
class CostModel:
    """Per-operation CPU costs in seconds.  One instance per simulation."""

    # -- generic host costs ---------------------------------------------------
    syscall: float = 0.55 * USEC  # sendmsg/recvmsg/epoll_wait entry+exit
    wakeup: float = 1.7 * USEC  # blocked thread wake (futex/sched) latency
    copy_per_byte: float = 0.08 * NSEC  # kernel<->user memcpy, warm cache
    reassembly_copy_per_byte: float = 0.03 * NSEC  # skb gather into message
    epoll_dispatch: float = 0.5 * USEC  # per-ready-event epoll bookkeeping

    # -- crypto (AES-128-GCM, charged wherever the cipher runs) ---------------
    crypto_per_byte: float = 0.05 * NSEC
    crypto_per_record: float = 0.38 * USEC  # nonce setup, tag finalisation
    # HW offload replaces CPU crypto with descriptor population per segment
    # plus an occasional resync descriptor (paper §3.2, §4.4.2).
    offload_meta_per_segment: float = 0.12 * USEC
    offload_resync: float = 0.08 * USEC
    # kTLS RX must locate and gather each record out of the bytestream
    # before decrypting (stream scan; paper §2.1/KCM discussion).
    stream_gather_per_byte: float = 0.18 * NSEC
    record_parse: float = 0.18 * USEC  # per TLS record header parse

    # -- NIC / driver ----------------------------------------------------------
    driver_tx_per_segment: float = 0.35 * USEC  # descriptor + doorbell
    driver_rx_per_packet: float = 0.10 * USEC  # per-packet DMA/refill share
    nic_fixed_latency: float = 0.65 * USEC  # PCIe + pipeline, each direction
    nic_crypto_latency: float = 0.10 * USEC  # in-NIC AES pipeline (latency only)

    # -- TCP stack (per-RPC fixed part is the calibrated long path) -----------
    tcp_tx_per_segment: float = 0.55 * USEC  # tcp_sendmsg segment setup
    tcp_tx_per_packet: float = 0.12 * USEC  # qdisc/pacing share per packet
    tcp_rx_per_packet: float = 1.30 * USEC  # tcp_rcv_established + reassembly
    tcp_rx_merged_per_packet: float = 0.36 * USEC  # GRO-merged follow-up packet
    tcp_rx_fixed: float = 2.20 * USEC  # socket lookup, sk_data_ready chain
    tcp_ack_rx: float = 0.50 * USEC  # pure-ACK processing
    tcp_ack_tx: float = 0.40 * USEC  # ACK generation
    tcp_wake_softirq: float = 1.80 * USEC  # ep_poll_callback runs in softirq
    tcp_timer: float = 0.60 * USEC  # RTO/keepalive timer bookkeeping per RPC

    # -- Homa / SMT stack -------------------------------------------------------
    homa_tx_per_message: float = 0.70 * USEC  # RPC state alloc, msg setup
    homa_tx_per_packet: float = 0.11 * USEC
    homa_rx_per_message: float = 0.60 * USEC  # SRPT insert, msg bookkeeping
    homa_rx_per_packet: float = 0.55 * USEC
    homa_rx_merged_per_packet: float = 0.055 * USEC  # follow-up packet in a batch
    # Per-byte share of receive processing (buffer chaining, cache traffic).
    # Splitting per-packet cost into fixed + per-byte parts makes jumbo
    # MTUs help realistically (§5.2's 9KB-MTU experiment) instead of
    # erasing per-packet costs wholesale.
    homa_rx_per_byte: float = 0.10 * NSEC
    homa_grant_tx: float = 0.18 * USEC
    homa_grant_rx: float = 0.20 * USEC
    homa_wake: float = 0.25 * USEC  # sk_data_ready-style handoff (softirq side)
    # Homa delivers a message only once complete, then copies it out in one
    # go (§5.1: the receiver "waits for the arrival of the entire RPC").
    homa_deliver_fixed: float = 0.25 * USEC
    # recvmsg/sendmsg do the heavy per-message user-boundary work: buffer
    # reap, RPC bookkeeping, SRPT queue maintenance (app-thread context).
    homa_send_extra: float = 0.35 * USEC
    homa_recv_extra: float = 0.55 * USEC

    # -- SMT additions ----------------------------------------------------------
    smt_frame_per_record: float = 0.12 * USEC  # composite seqno + framing
    smt_session_lookup: float = 0.10 * USEC
    smt_replay_check: float = 0.05 * USEC

    # -- application-level costs (kv store §5.3, NVMe-oF §5.4) -----------------
    kv_parse: float = 0.35 * USEC  # command parse
    kv_get: float = 0.55 * USEC  # hash lookup
    kv_set: float = 0.80 * USEC  # hash update + allocation
    kv_response: float = 0.25 * USEC  # response construction
    nvme_cmd: float = 1.00 * USEC  # NVMe command processing (each side)
    nvme_completion: float = 0.80 * USEC  # block-layer completion path

    def crypto_cost(self, nbytes: int) -> float:
        """CPU cost of sealing/opening one record of ``nbytes``."""
        return nbytes * self.crypto_per_byte + self.crypto_per_record

    def copy_cost(self, nbytes: int) -> float:
        return nbytes * self.copy_per_byte

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every cost multiplied by ``factor`` (ablations)."""
        kwargs = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
        }
        return CostModel(**kwargs)
