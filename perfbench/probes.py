"""Wrapper spans the benchmark installs around public calls into each layer.

The program is not edited: :class:`Probes` replaces a public function
or method with a timing wrapper for the duration of a ``with`` block
and restores it afterwards.  Names are patched where they are looked
up — a method on its class, a function in the module that imported it
by name (``repro.daemon.daemon.execute_epoch``, the benchmark's own
``build_model``).  Each call records a :class:`Span` with a link to
the wrapper span it ran inside, so a layer's *self* time is its span
time minus the time of wrapped calls it made.  Spans stay in memory
and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One wrapped call: ``parent`` indexes the enclosing wrapped call."""

    name: str
    layer: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Probes:
    """Install wrappers; collect spans; restore the originals on exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        layer: str,
        *,
        enter: Optional[Callable] = None,
        leave: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span ``name``.

        ``enter(span)`` runs before the call and ``leave(span, args,
        result)`` after it, both outside the timed interval; either may
        fill ``span.attrs``.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, 0)
            stack.append(len(spans))
            spans.append(span)
            if enter is not None:
                enter(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if leave is not None:
                leave(span, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *_exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def named(self, name: str, since_ns: int = 0) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.start_ns >= since_ns]

    def self_seconds(self, since_ns: int = 0) -> Dict[str, float]:
        """Per-layer self time of the spans that started after ``since_ns``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.seconds
        layers: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.start_ns >= since_ns:
                layers[span.layer] = layers.get(span.layer, 0.0) + span.seconds - child[i]
        return layers

    def dump(self, path: Path, header: Dict[str, object]) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        origin = self.spans[0].start_ns if self.spans else 0
        rows = [
            {
                "id": i,
                "parent": s.parent,
                "name": s.name,
                "layer": s.layer,
                "start_us": (s.start_ns - origin) // 1000,
                "dur_us": (s.end_ns - s.start_ns) // 1000,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(
            json.dumps({**header, "spans": rows}, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def tail_percentile(basis: int) -> int:
    """Highest whole percentile leaving >= 10 of ``basis`` samples above it."""
    return max(50, min(99, int(100 * (1 - 10 / basis)))) if basis > 0 else 50


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
