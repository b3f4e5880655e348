"""Unit helpers for time and data sizes.

The simulator's clock is a ``float`` in **seconds**.  These constants
keep the cost model readable: ``3.2 * USEC`` instead of
``3.2e-6``.  Data sizes are plain ``int`` bytes; ``KB``/``MB`` follow the
paper's usage (binary multiples, since TLS records are 16 KiB and TSO
segments 64 KiB).
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

SEC = 1.0
MSEC = 1e-3
USEC = 1e-6
NSEC = 1e-9

# -- data ------------------------------------------------------------------

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

GBPS = 1e9  # bits per second
