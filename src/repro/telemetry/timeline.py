"""The record a traced orchestration timeline is made of.

:class:`TraceEntry` is shared by the runtime's
:class:`~repro.runtime.tracing.Tracer`, which records entries, and the
exporters of this package, which serialise them.  It lives here, below
the runtime, so that importing any telemetry module never imports the
runtime package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["TraceEntry"]


@dataclass(frozen=True)
class TraceEntry:
    """One recorded orchestration event."""

    timestamp: float
    kind: str  # 'source' | 'context' | 'action'
    subject: str  # device entity id or context name
    detail: str  # source/action name or empty
    value: Any = None

    def render(self) -> str:
        clock = _format_time(self.timestamp)
        if self.kind == "source":
            return (
                f"{clock}  source   {self.subject}.{self.detail} = "
                f"{_short(self.value)}"
            )
        if self.kind == "context":
            return (
                f"{clock}  context  {self.subject} published "
                f"{_short(self.value)}"
            )
        return f"{clock}  action   {self.detail} on {self.subject}" + (
            f" {_short(self.value)}" if self.value else ""
        )


def _format_time(seconds: float) -> str:
    hours = int(seconds // 3600)
    minutes = int(seconds % 3600 // 60)
    secs = seconds % 60
    return f"{hours:03d}:{minutes:02d}:{secs:06.3f}"


def _short(value: Any, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
