"""FIO-style random-read driver for the NVMe-oF experiments (Figure 9).

Keeps ``iodepth`` 4 KB read commands outstanding against a remote target
and records per-command completion latency.  Works over both transport
families through two small adapters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.apps.nvmeof.protocol import (
    STATUS_SUCCESS,
    decode_completion,
    encode_read_cmd,
)
from repro.apps.rpc import RpcChannel
from repro.errors import ProtocolError
from repro.homa.socket import HomaSocket
from repro.host.cpu import AppThread
from repro.sim.trace import Histogram


@dataclass
class FioResult:
    """Latency distribution of one run."""

    latency: Histogram = field(default_factory=lambda: Histogram("fio"))
    completed: int = 0
    errors: int = 0

    def p50_us(self) -> float:
        return self.latency.p50() * 1e6

    def p99_us(self) -> float:
        return self.latency.p99() * 1e6


class MessageFioDriver:
    """Random reads over a Homa/SMT socket."""

    def __init__(
        self,
        socket: HomaSocket,
        target_addr: int,
        target_port: int,
        num_blocks: int,
        rng: random.Random,
    ):
        self.socket = socket
        self.target_addr = target_addr
        self.target_port = target_port
        self.num_blocks = num_blocks
        self.rng = rng
        self.result = FioResult()
        self._next_cid = 0

    def worker(
        self, thread: AppThread, duration: float, warmup: float = 0.0
    ) -> Generator[Any, Any, None]:
        """One outstanding command slot; run ``iodepth`` of these."""
        loop = self.socket.loop
        start = loop.now
        costs = self.socket.costs
        while loop.now - start < duration:
            cid = self._next_cid = (self._next_cid + 1) & 0xFFFF
            lba = self.rng.randrange(self.num_blocks)
            t0 = loop.now
            payload = yield from self.socket.call(
                thread, self.target_addr, self.target_port, encode_read_cmd(cid, lba)
            )
            status, _cid, data = decode_completion(payload)
            # As at the target, the early port copies each block once more.
            yield from thread.work(costs.nvme_completion + costs.copy_cost(len(data)))
            if status != STATUS_SUCCESS or len(data) != 4096:
                self.result.errors += 1
                raise ProtocolError("NVMe read failed")
            if loop.now - start >= warmup:
                self.result.latency.record(loop.now - t0)
                self.result.completed += 1


class StreamFioDriver:
    """Random reads over one TCP-based channel with pipelined iodepth."""

    def __init__(
        self,
        channel,
        num_blocks: int,
        rng: random.Random,
    ):
        self.channel = channel
        self.rpc = RpcChannel(channel)
        self.num_blocks = num_blocks
        self.rng = rng
        self.result = FioResult()
        self._issue_times: dict[int, float] = {}

    def _issue(self, thread: AppThread) -> Generator[Any, Any, None]:
        loop = self.channel.conn.loop
        cid = self.rng.randrange(1 << 16)
        lba = self.rng.randrange(self.num_blocks)
        req_id = yield from self.rpc.send_request(thread, encode_read_cmd(cid, lba))
        self._issue_times[req_id] = loop.now

    def run(
        self,
        thread: AppThread,
        iodepth: int,
        duration: float,
        warmup: float = 0.0,
    ) -> Generator[Any, Any, None]:
        """Closed loop: keep ``iodepth`` commands outstanding."""
        loop = self.channel.conn.loop
        costs = self.channel.costs
        start = loop.now
        for _ in range(iodepth):
            yield from self._issue(thread)
        while loop.now - start < duration:
            req_id, payload = yield from self.rpc.recv_response(thread)
            t0 = self._issue_times.pop(req_id)
            status, _cid, data = decode_completion(payload)
            yield from thread.work(costs.nvme_completion)
            if status != STATUS_SUCCESS or len(data) != 4096:
                self.result.errors += 1
                raise ProtocolError("NVMe read failed")
            if loop.now - start >= warmup:
                self.result.latency.record(loop.now - t0)
                self.result.completed += 1
            yield from self._issue(thread)
