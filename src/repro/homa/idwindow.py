"""Sparse windows of message IDs: who has been seen, one bit per ID.

Both duplicate filters on the receive path keep one: Homa's per-peer
memory of delivered messages (a late copy of one is ignored) and SMT's
replay defence (an ID is accepted once, paper §4.4.1/§6.1).  Membership
is exact above a *watermark*; every ID at or below it reads as seen.

IDs are stored as bits in 128-ID chunks, a dict from ``id >> 7`` to an
int mask, so dense IDs cost under 2 B each and a lone ID (a forged
header's, say) one small chunk.  Nothing is ever sized by an ID's value.
The watermark moves only when more than twice ``REPLAY_WINDOW_IDS`` are
held, so each prune pays O(chunks) once per O(window) adds.  A prune keeps
the highest ``REPLAY_WINDOW_IDS`` IDs held and raises the watermark to the
highest ID it dropped, so every ID once seen stays seen, and an ID nobody
sent (a forged outlier near 2^48) takes one slot and cannot lift the floor
past the peer's real IDs.
"""

from __future__ import annotations

#: IDs each window keeps exactly before its watermark may move.
REPLAY_WINDOW_IDS = 65536

_CHUNK_BITS = 7
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


class IdWindow:
    """The IDs seen from one peer: exact above ``watermark``, all below."""

    __slots__ = ("watermark", "_chunks", "_count")

    def __init__(self):
        self._chunks: dict[int, int] = {}
        self.clear()

    def clear(self) -> None:
        """Forget every ID and lower the watermark (a new ID space)."""
        self._chunks.clear()
        self._count = 0
        self.watermark = -1  # IDs <= watermark read as seen

    def __len__(self) -> int:
        """IDs held exactly (those above the watermark)."""
        return self._count

    def __contains__(self, msg_id: int) -> bool:
        if msg_id <= self.watermark:
            return True
        mask = self._chunks.get(msg_id >> _CHUNK_BITS)
        return mask is not None and (mask >> (msg_id & _CHUNK_MASK)) & 1 == 1

    def add(self, msg_id: int) -> bool:
        """Remember ``msg_id``; False if it already reads as seen."""
        if msg_id <= self.watermark:
            return False
        chunks = self._chunks
        key = msg_id >> _CHUNK_BITS
        bit = 1 << (msg_id & _CHUNK_MASK)
        mask = chunks.get(key, 0)
        if mask & bit:
            return False
        chunks[key] = mask | bit
        self._count += 1
        if self._count > 2 * REPLAY_WINDOW_IDS:
            self._prune()
        return True

    def discard(self, msg_id: int) -> None:
        """Forget ``msg_id`` if it is held exactly (no-op below the watermark)."""
        chunks = self._chunks
        key = msg_id >> _CHUNK_BITS
        mask = chunks.get(key, 0)
        bit = 1 << (msg_id & _CHUNK_MASK)
        if mask & bit:
            mask ^= bit
            if mask:
                chunks[key] = mask
            else:
                del chunks[key]
            self._count -= 1

    def _prune(self) -> None:
        """Drop the lowest chunks until at most ``REPLAY_WINDOW_IDS`` remain.

        The watermark rises to the highest ID dropped; every held ID is
        above the old one, so it never falls between clears.
        """
        chunks = self._chunks
        count = self._count
        top = None
        for key in sorted(chunks):
            if count <= REPLAY_WINDOW_IDS:
                break
            top = key
            count -= chunks[key].bit_count()
        self.watermark = (top << _CHUNK_BITS) + chunks[top].bit_length() - 1
        self._chunks = {k: m for k, m in chunks.items() if k > top}
        self._count = count

