"""Consistent hashing: the front end's replica choice.

:class:`ConsistentHashBalancer` is a hash ring with virtual nodes.
Session/key affinity is stable under membership churn: removing one
replica remaps *only* the keys that replica owned (at most ~K/N of
them), everything else keeps its assignment.  Hashing uses keyed
BLAKE2b, so a given (key sequence, membership sequence) replays
identically.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Sequence

from repro.errors import ProtocolError


def _hash64(data: bytes, salt: bytes = b"lb-ring") -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt).digest(), "big"
    )


def _key_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    return str(key).encode()


#: Virtual nodes per replica on the hash ring.
VNODES = 64


class ConsistentHashBalancer:
    """Ring hashing with :data:`VNODES` virtual nodes per replica."""

    def __init__(self):
        # Membership tuple -> (sorted vnode hashes, owner per vnode).
        self._rings: dict[tuple, tuple[list[int], list]] = {}

    def _ring(self, replicas: tuple) -> tuple[list[int], list]:
        ring = self._rings.get(replicas)
        if ring is None:
            points = []
            for rid in replicas:
                base = _key_bytes(rid)
                for v in range(VNODES):
                    points.append((_hash64(base + b"#%d" % v), rid))
            points.sort()
            ring = ([h for h, _ in points], [rid for _, rid in points])
            self._rings[replicas] = ring
        return ring

    def pick(self, key, replicas: Sequence):
        if not replicas:
            raise ProtocolError("no live replicas to pick from")
        members = tuple(sorted(replicas, key=_key_bytes))
        hashes, owners = self._ring(members)
        idx = bisect_right(hashes, _hash64(_key_bytes(key), salt=b"lb-key"))
        return owners[idx % len(owners)]
