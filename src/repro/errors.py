"""Exception hierarchy for the PEACE reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause.  Protocol
failures are deliberately split into fine-grained classes because the
benchmarks and attack-evaluation harnesses count *why* a handshake was
rejected (bad signature vs. revoked key vs. stale timestamp, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ReproError):
    """A cryptographic parameter set is malformed or inconsistent."""


class EncodingError(ReproError):
    """Serialization or deserialization of a wire object failed."""


class NotOnCurveError(ReproError):
    """A claimed elliptic-curve point does not satisfy the curve equation."""


class SignatureError(ReproError):
    """Base class for signature-verification failures."""


class InvalidSignature(SignatureError):
    """A (group or standard) signature failed verification."""


class RevokedKeyError(SignatureError):
    """A group signature was produced by a revoked group private key."""

    @classmethod
    def for_token(cls, token_index: int) -> "RevokedKeyError":
        """The Eq.3 match error, recording *which* URL token matched.

        ``token_index`` lets callers (the operator's audit trail, the
        verifier pool's identity checks) confirm that two scans opened
        the same revocation entry, not merely that both rejected.
        """
        error = cls(f"signer's key appears in the URL (token {token_index})")
        error.token_index = token_index
        return error


class CertificateError(ReproError):
    """A certificate is invalid, expired, or revoked."""


class ProtocolError(ReproError):
    """Base class for authentication / key-agreement protocol failures."""


class ReplayError(ProtocolError):
    """A message failed its timestamp / nonce freshness check."""


class AuthenticationError(ProtocolError):
    """The peer failed to authenticate."""


class PuzzleError(ProtocolError):
    """A client-puzzle solution is missing or wrong."""


class SessionError(ProtocolError):
    """A data-plane session operation failed (bad MAC, unknown session)."""


class DegradedModeError(ProtocolError):
    """A router with a severed operator channel is past its staleness
    grace window and refuses service rather than act on stale lists."""


class AuditError(ReproError):
    """An audit or tracing operation could not complete."""


class SimulationError(ReproError):
    """The WMN simulator was driven into an inconsistent state."""


class FaultInjectionError(SimulationError):
    """A fault plan is malformed or an injector was armed incorrectly."""
