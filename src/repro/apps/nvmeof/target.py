"""NVMe-oF targets serving the device over each transport family.

In-kernel on both ends (paper §5.4): the target runs in kernel context
(no user copies), and the message-transport variant charges the extra
data copy the paper's early SMT/Homa port performs ("one extra data copy
compared to TCP") and funnels through a single I/O queue ("lack of
support for multiple I/O queues").

Commands are handled concurrently: the dispatcher loop hands each command
to its own process so device reads overlap (that is the whole point of
iodepth), while CPU work serialises on the target thread's core.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.apps.nvmeof.device import NvmeDevice
from repro.apps.nvmeof.protocol import decode_read_cmd, encode_completion
from repro.apps.rpc import RpcChannel
from repro.homa.socket import HomaSocket, InboundRpc
from repro.host.cpu import AppThread


class MessageNvmeTarget:
    """Serves read commands arriving as Homa/SMT messages."""

    def __init__(self, socket: HomaSocket, device: NvmeDevice):
        self.socket = socket
        self.device = device
        self.commands_served = 0

    def run(self, thread: AppThread) -> Generator[Any, Any, None]:
        loop = self.socket.loop
        while True:
            rpc = yield from self.socket.recv_request(thread)
            loop.process(self._handle(thread, rpc))

    def _handle(self, thread: AppThread, rpc: InboundRpc) -> Generator[Any, Any, None]:
        costs = self.socket.costs
        cid, lba, blocks = decode_read_cmd(rpc.payload)
        yield from thread.work(costs.nvme_cmd)
        data = b""
        for i in range(blocks):
            block = yield from self.device.read_block(lba + i)
            data += block
        # The paper's early port moves the block once more between the
        # block layer and the message transport.
        yield from thread.work(costs.nvme_completion + costs.copy_cost(len(data)))
        yield from self.socket.reply(thread, rpc, encode_completion(cid, data))
        self.commands_served += 1


class StreamNvmeTarget:
    """Serves read commands over one TCP-based channel (kTLS or plain)."""

    def __init__(self, channel, device: NvmeDevice):
        self.channel = channel
        self.rpc = RpcChannel(channel)
        self.device = device
        self.commands_served = 0

    def run(self, thread: AppThread) -> Generator[Any, Any, None]:
        loop = self.channel.conn.loop
        while True:
            req_id, payload = yield from self.rpc.recv_request(thread)
            loop.process(self._handle(thread, req_id, payload))

    def _handle(self, thread: AppThread, req_id: int, payload: bytes) -> Generator[Any, Any, None]:
        costs = self.channel.costs
        cid, lba, blocks = decode_read_cmd(payload)
        yield from thread.work(costs.nvme_cmd)
        data = b""
        for i in range(blocks):
            block = yield from self.device.read_block(lba + i)
            data += block
        yield from thread.work(costs.nvme_completion)
        yield from self.rpc.send_response(thread, req_id, encode_completion(cid, data))
        self.commands_served += 1
