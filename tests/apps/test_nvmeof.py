"""NVMe-oF tests: device model, protocol, end-to-end reads."""

import random

import pytest

from repro.apps.fio import MessageFioDriver, StreamFioDriver
from repro.apps.nvmeof import (
    MessageNvmeTarget,
    NvmeDevice,
    StreamNvmeTarget,
    decode_completion,
    decode_read_cmd,
    encode_completion,
    encode_read_cmd,
)
from repro.errors import ProtocolError, ReproError
from repro.homa import HomaSocket, HomaTransport
from repro.ktls import ktls_pair
from repro.sim.event_loop import EventLoop
from repro.tcp import connect_pair
from repro.testbed import Testbed
from tests.sim.helpers import run_process


class TestProtocol:
    def test_command_roundtrip(self):
        cid, lba, blocks = decode_read_cmd(encode_read_cmd(5, 1234, 2))
        assert (cid, lba, blocks) == (5, 1234, 2)

    def test_completion_roundtrip(self):
        status, cid, data = decode_completion(encode_completion(7, b"D" * 4096))
        assert status == 0 and cid == 7 and data == b"D" * 4096

    def test_short_capsules_rejected(self):
        with pytest.raises(ProtocolError):
            decode_read_cmd(b"\x02")
        with pytest.raises(ProtocolError):
            decode_completion(b"\x00")

    def test_unsupported_opcode(self):
        import struct

        bad = struct.pack("!BHQI", 0x01, 0, 0, 1)  # write, unsupported
        with pytest.raises(ProtocolError):
            decode_read_cmd(bad)


class TestDevice:
    def test_read_latency_plausible(self):
        loop = EventLoop()
        dev = NvmeDevice(loop, random.Random(1))
        times = []

        def body():
            t0 = loop.now
            data = yield from dev.read_block(100)
            times.append(loop.now - t0)
            assert len(data) == 4096

        run_process(loop, body())
        assert 60e-6 < times[0] < 400e-6

    def test_channel_parallelism(self):
        loop = EventLoop()
        dev = NvmeDevice(loop, random.Random(1), channels=8,
                         base_read_latency=100e-6, tail_scale=1e-9)

        def body(lba):
            yield from dev.read_block(lba)

        # 8 reads on distinct channels complete in ~1 service time.
        for lba in range(8):
            loop.process(body(lba))
        loop.run()
        assert loop.now < 150e-6

    def test_same_channel_serialises(self):
        loop = EventLoop()
        dev = NvmeDevice(loop, random.Random(1), channels=8,
                         base_read_latency=100e-6, tail_scale=1e-9)

        def body():
            yield from dev.read_block(0)

        for _ in range(3):
            loop.process(body())  # all LBA 0: same channel
        loop.run()
        assert loop.now > 290e-6

    def test_lba_out_of_range(self):
        loop = EventLoop()
        dev = NvmeDevice(loop, random.Random(1), num_blocks=100)

        def body():
            yield from dev.read_block(100)

        with pytest.raises(ReproError):
            run_process(loop, body())

    def test_deterministic_content(self):
        loop = EventLoop()
        dev = NvmeDevice(loop, random.Random(1))
        out = {}

        def body():
            out["data"] = yield from dev.read_block(0x1AB)

        run_process(loop, body())
        assert out["data"] == bytes([0xAB]) * 4096


class TestEndToEnd:
    def test_reads_over_homa(self):
        bed = Testbed.back_to_back()
        ct = HomaTransport(bed.client)
        st = HomaTransport(bed.server)
        csock = HomaSocket(ct, bed.client.alloc_port())
        ssock = HomaSocket(st, 4420)
        device = NvmeDevice(bed.loop, random.Random(5))
        target = MessageNvmeTarget(ssock, device)
        bed.loop.process(target.run(bed.server.app_thread(0)))
        driver = MessageFioDriver(
            csock, bed.server.addr, 4420, device.num_blocks, random.Random(6)
        )
        for i in range(4):  # iodepth 4
            bed.loop.process(driver.worker(bed.client.app_thread(i), duration=3e-3))
        bed.loop.run(until=10e-3)
        assert driver.result.completed > 10
        assert driver.result.errors == 0
        assert 60 < driver.result.p50_us() < 500

    def test_reads_over_ktls(self):
        bed = Testbed.back_to_back()
        conn_c, conn_s = connect_pair(bed.client, bed.server, 4420)
        c, s = ktls_pair(conn_c, conn_s, "sw")
        device = NvmeDevice(bed.loop, random.Random(5))
        target = StreamNvmeTarget(s, device)
        bed.loop.process(target.run(bed.server.app_thread(0)))
        driver = StreamFioDriver(c, device.num_blocks, random.Random(6))
        bed.loop.process(
            driver.run(bed.client.app_thread(0), iodepth=4, duration=3e-3)
        )
        bed.loop.run(until=10e-3)
        assert driver.result.completed > 10
        assert driver.result.errors == 0
        assert 60 < driver.result.p50_us() < 500

    def test_iodepth_increases_throughput(self):
        def throughput(iodepth):
            bed = Testbed.back_to_back()
            conn_c, conn_s = connect_pair(bed.client, bed.server, 4420)
            c, s = ktls_pair(conn_c, conn_s, None)
            device = NvmeDevice(bed.loop, random.Random(5))
            target = StreamNvmeTarget(s, device)
            bed.loop.process(target.run(bed.server.app_thread(0)))
            driver = StreamFioDriver(c, device.num_blocks, random.Random(6))
            bed.loop.process(
                driver.run(bed.client.app_thread(0), iodepth=iodepth, duration=5e-3)
            )
            bed.loop.run(until=20e-3)
            return driver.result.completed

        assert throughput(8) > 2 * throughput(1)
