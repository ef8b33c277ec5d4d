"""The :class:`Telemetry` bundle: one optional argument for all three sinks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import at runtime)
    from .ledger import RunLedger
    from .metrics import MetricsRegistry
    from .tracing import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Bundle of an event tracer, a metrics registry, and a run ledger.

    Any side may be ``None``; :attr:`enabled` is true when at least one
    is live (null backends count as absent). Consumers that receive
    ``telemetry=None`` skip all instrumentation work.
    """

    __slots__ = ("tracer", "metrics", "ledger")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional["RunLedger"] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.ledger = ledger

    @property
    def enabled(self) -> bool:
        tracing = self.tracer is not None and self.tracer.enabled
        measuring = self.metrics is not None and self.metrics.enabled
        return tracing or measuring or self.ledger is not None
