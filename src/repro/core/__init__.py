"""SMT: the secure message transport (the paper's contribution).

- :mod:`repro.core.seqspace` -- the composite 64-bit record sequence
  number (message ID + intra-message record index, §4.4.1, Figures 4-5).
- :mod:`repro.core.framing` -- offload-friendly record/segment layout
  (§4.3, Figure 3).
- :mod:`repro.core.session` -- per-5-tuple secure sessions: direction
  keys, message-ID replay defence, NIC flow-context management (§4.4.2).
- :mod:`repro.core.codec` -- the message codec plugging SMT into the Homa
  engine: encrypt on encode, decrypt + authenticate on decode.
- :mod:`repro.core.endpoint` -- sockets + TLS 1.3 session establishment
  over the transport (§4.2).
- :mod:`repro.core.zero_rtt` -- SMT-ticket 0-RTT key exchange via the
  internal DNS (§4.5).
"""

from repro.core.codec import SmtCodec
from repro.core.endpoint import SmtEndpoint
from repro.core.framing import RECORD_OVERHEAD, FramePlan, plan_message
from repro.core.seqspace import BitAllocation, CompositeSeqno
from repro.core.session import SmtSession

__all__ = [
    "BitAllocation",
    "CompositeSeqno",
    "FramePlan",
    "plan_message",
    "RECORD_OVERHEAD",
    "SmtSession",
    "SmtCodec",
    "SmtEndpoint",
]
