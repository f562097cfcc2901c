"""Typed error taxonomy for the query service and its wire protocol.

The original broker surfaced every failure as whatever exception the
engine happened to raise, and the server flattened them all into one
``"error": "<TypeName>: <message>"`` string.  That works for a human at
a terminal but not for a client that must distinguish "your query is
malformed, don't retry" from "the service is full, retry in 50 ms".

This module defines the service's error vocabulary:

* :class:`ServiceError` — base class; every subclass carries a stable
  machine-readable ``code``.
* :class:`QueryValidationError` — the query itself is wrong (unknown
  kernel/arch/mission/fault/cache label, bad options).  Not retryable.
* :class:`ServiceOverloaded` — admission control shed the query; carries
  ``retry_after`` seconds.  Retryable after backing off.
* :class:`ShardUnavailable` — the service is closed.  Retryable once
  it is restarted.
* :class:`ServiceTimeout` — the query's deadline for an answer passed,
  on the server's await or the client's socket.  The solve may still
  complete server-side and land in cache.

:func:`error_record` / :func:`error_from_record` translate between
exceptions and the structured JSONL error records of wire envelope v2
(``{"code": ..., "message": ..., "retry_after": ...}``), so a
:class:`~repro.service.server.ServiceClient` re-raises the *typed*
class, not a bare ``RuntimeError`` (see ``docs/service.md``).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "QueryValidationError",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceTimeout",
    "ShardUnavailable",
    "error_from_record",
    "error_record",
]


class ServiceError(RuntimeError):
    """Base class for every typed service failure.

    Attributes:
        code: Stable machine-readable error code serialized on the wire.
        retry_after: Suggested client backoff in seconds, or None when
            retrying cannot help (validation errors) or no hint exists.
    """

    code = "internal"

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class QueryValidationError(ServiceError, ValueError):
    """The query names something unregistered or carries bad options.

    Subclasses ``ValueError`` too, so legacy ``except (KeyError,
    ValueError)`` call sites written against the pre-taxonomy broker
    keep catching validation failures.
    """

    code = "query-validation"


class ServiceOverloaded(ServiceError):
    """Admission control shed the query instead of queueing it.

    The replacement for unbounded blocking: when the service's inflight
    bound is reached, the submit fails fast with this error and a
    deterministic ``retry_after`` hint instead of parking the caller
    on a full queue forever.
    """

    code = "service-overloaded"

    def __init__(self, message: str, retry_after: float = 0.05):
        super().__init__(message, retry_after=retry_after)


class ShardUnavailable(ServiceError):
    """The service is closed and cannot answer.

    Raised when a query reaches a pool whose dispatcher has shut down —
    distinct from :class:`ServiceOverloaded` because waiting does not
    help until the service is restarted.  The name and the wire code
    keep their sharded-era spelling for compatibility.
    """

    code = "shard-unavailable"


class ServiceTimeout(ServiceError, TimeoutError):
    """No answer arrived within the caller's deadline.

    Subclasses ``TimeoutError`` so pre-taxonomy ``except TimeoutError``
    call sites keep working.  The server may still finish the solve and
    cache it; a retry typically hits L1.
    """

    code = "timeout"


#: Wire code -> exception class, for :func:`error_from_record`.
_CLASS_OF_CODE = {
    cls.code: cls
    for cls in (
        ServiceError,
        QueryValidationError,
        ServiceOverloaded,
        ShardUnavailable,
        ServiceTimeout,
    )
}


def error_record(exc: BaseException) -> dict:
    """The structured wire record (envelope v2) describing ``exc``.

    Typed :class:`ServiceError` subclasses serialize their own code and
    retry hint.  Untyped exceptions are classified conservatively:
    ``KeyError`` / ``ValueError`` / ``TypeError`` — the validation
    errors the query types raise — map to ``query-validation``;
    ``TimeoutError`` maps to ``timeout``; everything else is
    ``internal``.  ``type`` records the original exception class name
    for debugging (clients should branch on ``code``, never ``type``).
    """
    if isinstance(exc, ServiceError):
        code = exc.code
        retry_after = exc.retry_after
    elif isinstance(exc, (KeyError, ValueError, TypeError)):
        code = QueryValidationError.code
        retry_after = None
    elif isinstance(exc, TimeoutError):
        code = ServiceTimeout.code
        retry_after = None
    else:
        code = ServiceError.code
        retry_after = None
    # KeyError's str() quotes its message; unwrap a lone string arg so
    # wire messages read cleanly.
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        message = str(exc.args[0])
    else:
        message = str(exc)
    return {
        "code": code,
        "message": message,
        "retry_after": retry_after,
        "type": type(exc).__name__,
    }


def error_from_record(record: dict) -> ServiceError:
    """Rebuild the typed exception a wire error record describes.

    Unknown codes degrade to the :class:`ServiceError` base (a newer
    server may grow codes an older client has never heard of); the code
    and message always survive the round trip.
    """
    code = record.get("code", ServiceError.code)
    message = str(record.get("message", ""))
    retry_after = record.get("retry_after")
    cls = _CLASS_OF_CODE.get(code, ServiceError)
    if cls is ServiceOverloaded:
        return cls(message, retry_after=float(retry_after or 0.05))
    exc = cls(message)
    exc.retry_after = retry_after
    if cls is ServiceError and code != ServiceError.code:
        exc.code = code  # preserve the unknown code for forwarding
    return exc
