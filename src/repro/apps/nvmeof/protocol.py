"""NVMe-oF command capsules (the subset random-read needs)."""

from __future__ import annotations

import struct

from repro.errors import ProtocolError

OPC_READ = 0x02
STATUS_SUCCESS = 0

_CMD = struct.Struct("!BHQI")  # opcode, command id, start LBA, block count
_CPL = struct.Struct("!BHI")  # status, command id, data length


def encode_read_cmd(command_id: int, lba: int) -> bytes:
    """A one-block read: random-read FIO issues 4 KB commands only."""
    return _CMD.pack(OPC_READ, command_id, lba, 1)


def decode_read_cmd(data: bytes) -> tuple[int, int, int]:
    """(command_id, lba, blocks)."""
    if len(data) < _CMD.size:
        raise ProtocolError("short NVMe command capsule")
    opc, cid, lba, blocks = _CMD.unpack_from(data)
    if opc != OPC_READ:
        raise ProtocolError(f"unsupported NVMe opcode {opc:#x}")
    return cid, lba, blocks


def encode_completion(command_id: int, data: bytes) -> bytes:
    return _CPL.pack(STATUS_SUCCESS, command_id, len(data)) + data


def decode_completion(payload: bytes) -> tuple[int, int, bytes]:
    """(status, command_id, data)."""
    if len(payload) < _CPL.size:
        raise ProtocolError("short NVMe completion capsule")
    status, cid, length = _CPL.unpack_from(payload)
    data = payload[_CPL.size : _CPL.size + length]
    if len(data) != length:
        raise ProtocolError("truncated NVMe completion data")
    return status, cid, data
