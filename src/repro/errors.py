"""Exception hierarchy shared across the package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause.
Security-relevant failures (bad tags, bad signatures, replayed 0-RTT
hellos) get their own class, :class:`AuthenticationError`, because tests and
applications must distinguish them from plain protocol errors.
"""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class CryptoError(ReproError):
    """A cryptographic primitive was misused (bad key size, bad point...)."""


class AuthenticationError(CryptoError):
    """AEAD tag check or signature verification failed.

    Raised when ciphertext or a handshake signature does not authenticate.
    Receivers treat this as evidence of tampering or injection.
    """


class SessionFailedError(ReproError):
    """A secure session failed closed.

    Raised when corruption recovery gives up: a message repeatedly failed
    AEAD verification past the configured retry budget, so the endpoint
    refuses to deliver anything rather than risk accepting tampered data.
    """


class ProtocolError(ReproError):
    """A peer violated the protocol state machine or wire format."""


class TransportError(ReproError):
    """The underlying transport failed (e.g. message too large, closed)."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven incorrectly."""
