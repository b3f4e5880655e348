"""Pre-generated key pools (paper §4.5.1 "key pre-generation").

Table 2 prices inline keypair generation at 61.3us on the client (C1.1)
and 67.9us on the server (S2.1) -- the single largest handshake CPU term.
The paper's fix is to generate keys *in advance*: "servers can prepare
key pairs in advance ... removing the key generation cost from the
critical path".  :class:`KeyPool` holds a bounded stock of standby
keypairs and refills itself from a low watermark on an event-loop timer,
so handshakes draw keys in O(1) and the keygen CPU runs off to the side.
"""

from __future__ import annotations

import random
from collections import deque

from repro.crypto.ecdh import EcdhKeyPair
from repro.errors import ProtocolError

#: Keypairs one refill tick generates.
REFILL_BATCH = 8


class KeyPool:
    """A bounded stock of pre-generated ECDH keypairs with timer-driven refill.

    Only ephemeral (ECDH) keys are pooled: signing keys are long-lived, so
    their generation is never on a handshake's critical path.
    """

    def __init__(
        self,
        loop,
        rng: random.Random,
        capacity: int = 32,
        low_watermark: int = 8,
        refill_interval: float = 100e-6,
        prefill: bool = True,
    ):
        if not 0 <= low_watermark < capacity:
            raise ProtocolError(
                f"low watermark {low_watermark} must sit below capacity {capacity}"
            )
        self.loop = loop
        self.rng = rng
        self.capacity = capacity
        self.low_watermark = low_watermark
        self.refill_interval = refill_interval
        self._keys: deque = deque()
        self._refill_timer = None
        self.taken = 0
        self.misses = 0
        self.refilled = 0
        self.refill_ticks = 0
        if prefill:
            while len(self._keys) < capacity:
                self._keys.append(EcdhKeyPair.generate(rng))

    @property
    def size(self) -> int:
        return len(self._keys)

    def take(self):
        """Pop a standby keypair, or None on a miss (pool drained)."""
        if not self._keys:
            self.misses += 1
            self._arm_refill()
            return None
        key = self._keys.popleft()
        self.taken += 1
        if len(self._keys) <= self.low_watermark:
            self._arm_refill()
        return key

    def take_or_generate(self):
        """Pop a standby keypair, generating inline on a miss."""
        key = self.take()
        return key if key is not None else EcdhKeyPair.generate(self.rng)

    def _arm_refill(self) -> None:
        if self._refill_timer is None:
            self._refill_timer = self.loop.timer_later(
                self.refill_interval, self._refill_tick
            )

    def _refill_tick(self) -> None:
        self._refill_timer = None
        self.refill_ticks += 1
        batch = min(REFILL_BATCH, self.capacity - len(self._keys))
        for _ in range(batch):
            self._keys.append(EcdhKeyPair.generate(self.rng))
        self.refilled += batch
        if len(self._keys) < self.capacity:
            self._arm_refill()

    def cancel_refill(self) -> None:
        """Stop any pending refill (teardown)."""
        if self._refill_timer is not None:
            self._refill_timer.cancel()
            self._refill_timer = None

    def clear(self) -> int:
        """Discard the entire stock (process crash: keys die with it).

        Also cancels any pending refill -- a dead process runs no timers.
        Returns the number of keys discarded.  The next :meth:`take` after
        a restart misses and re-arms the refill, so recovery pays inline
        keygen until the timer catches up -- exactly the §4.5.1 cost the
        pool normally hides.
        """
        discarded = len(self._keys)
        self._keys.clear()
        self.cancel_refill()
        return discarded
