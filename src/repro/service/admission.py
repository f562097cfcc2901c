"""Admission control: bounded inflight work with priority-aware shedding.

The original broker's only overload behavior was to block submitters on
a full queue — fine for library callers, hostile to a network service
(a burst of batch traffic could park every interactive client behind
it, unboundedly).  The served broker
(:class:`~repro.service.shard.ShardPool`) fronts its queue with one
:class:`AdmissionController`:

* at most ``max_inflight`` queries may be admitted-but-unfinished;
* ``batch``-priority work is capped at a *fraction* of that bound, so
  background sweeps can never starve interactive asks;
* a rejected submit fails fast with a typed
  :class:`~repro.service.errors.ServiceOverloaded` carrying a
  deterministic ``retry_after`` hint (derived from queue pressure, not
  wall clocks — the no-wall-clock lint owns this module).

Shed decisions never consult the clock or randomness, so a given
admission state always sheds the same queries with the same hints —
which is what lets ``tests/test_service_tiers.py`` assert shed behavior
exactly.
"""

from __future__ import annotations

import threading

from repro.service.errors import ServiceOverloaded

__all__ = ["AdmissionController"]


class AdmissionController:
    """An inflight bound with a reserved interactive share.

    Args:
        max_inflight: Total admitted-but-unfinished queries allowed.
        batch_fraction: Share of ``max_inflight`` that ``batch``
            priority may occupy (at least 1 slot); the remainder is
            effectively reserved for ``interactive`` traffic.
    """

    def __init__(self, max_inflight: int = 64, batch_fraction: float = 0.5):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        self.max_inflight = max_inflight
        self.batch_limit = max(1, int(max_inflight * batch_fraction))
        self._lock = threading.Lock()
        self._inflight = 0
        self._batch_inflight = 0
        self.admitted = 0
        self.shed = 0

    def try_admit(self, priority: str = "interactive") -> None:
        """Admit one query or shed it with :class:`ServiceOverloaded`.

        The ``retry_after`` hint scales with how far over its limit the
        service is — deterministic, so identical admission states
        produce identical shed responses.
        """
        with self._lock:
            limit = (
                self.batch_limit if priority == "batch" else self.max_inflight
            )
            occupied = (
                self._batch_inflight if priority == "batch" else self._inflight
            )
            if self._inflight >= self.max_inflight or occupied >= limit:
                self.shed += 1
                retry_after = round(
                    0.05 * (1.0 + self._inflight / self.max_inflight), 3
                )
                raise ServiceOverloaded(
                    f"service at capacity ({self._inflight}/"
                    f"{self.max_inflight} inflight, priority={priority}); "
                    f"retry after {retry_after}s",
                    retry_after=retry_after,
                )
            self._inflight += 1
            if priority == "batch":
                self._batch_inflight += 1
            self.admitted += 1

    def release(self, priority: str = "interactive") -> None:
        """Return one admitted query's slot (call exactly once per admit)."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if priority == "batch":
                self._batch_inflight = max(0, self._batch_inflight - 1)

    def stats(self) -> dict:
        """JSON-friendly snapshot of bounds and live occupancy."""
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "batch_limit": self.batch_limit,
                "inflight": self._inflight,
                "batch_inflight": self._batch_inflight,
                "admitted": self.admitted,
                "shed": self.shed,
            }
