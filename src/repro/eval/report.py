"""Small reporting helpers shared by experiments and benchmarks."""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence

from repro.errors import ConfigError


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Raises:
        ConfigError: on empty input or non-positive entries.
    """
    values = list(values)
    if not values:
        raise ConfigError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def nearest_rank(count: int, q: float) -> int:
    """The 1-based rank of percentile ``q`` (in [0, 100]) among
    ``count`` sorted values: ``ceil(q / 100 * count)``, at least 1.

    Raises:
        ConfigError: when ``count`` is 0 or ``q`` is outside [0, 100].
    """
    if not count:
        raise ConfigError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ConfigError("percentile rank must be in [0, 100]")
    return max(1, math.ceil(q / 100.0 * count))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Raises:
        ConfigError: on empty input or ``q`` outside [0, 100].
    """
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def fraction_within(values: Iterable[float], bound: float) -> float:
    """Fraction of ``values`` at or below ``bound`` (SLO attainment).

    Non-finite entries (e.g. shed requests carrying ``inf``) count as
    misses.

    Raises:
        ConfigError: on empty input.
    """
    values = list(values)
    if not values:
        raise ConfigError("attainment of empty sequence")
    within = sum(1 for v in values if math.isfinite(v) and v <= bound)
    return within / len(values)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render rows as a fixed-width text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.4g}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def to_json(payload: object) -> str:
    """The one JSON serialisation path for machine-readable output."""
    return json.dumps(payload, indent=2, default=str)


def render_rows(rows: Sequence[Mapping[str, object]],
                as_json: bool = False) -> str:
    """Render dict rows as a fixed-width table or a JSON array.

    The single formatting path shared by the CLI, the runtime commands
    and the examples; empty input renders an explicit notice instead of
    crashing on ``rows[0]``.
    """
    rows = list(rows)
    if as_json:
        return to_json(rows)
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    body = [[row.get(h, "") for h in headers] for row in rows]
    return format_table(headers, body)
