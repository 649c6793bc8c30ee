"""Fig 2: expected wasted storage vs. RBER at several repair granularities.

Closed-form (no Monte-Carlo): the exhibit is a thin rendering of
:mod:`repro.repair.wasted_storage` (the side package in the layer map of
``docs/architecture.md``).  The paper's headline observation — a
1024-bit repair granularity wastes over 99% of capacity at RBER 6.8e-3
while bit-granularity repair wastes none — falls directly out of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.repair.wasted_storage import PAPER_GRANULARITIES, wasted_ratio_curve
from repro.utils.tables import format_series

__all__ = ["Fig2Result", "run", "render"]


@dataclass(frozen=True)
class Fig2Result:
    """Wasted-storage curves keyed by repair granularity."""

    rbers: tuple[float, ...]
    series: dict[int, tuple[float, ...]]

    def peak_waste(self, granularity: int) -> tuple[float, float]:
        """(rber, ratio) at the maximum of a granularity's curve."""
        curve = self.series[granularity]
        index = int(np.argmax(curve))
        return self.rbers[index], curve[index]


def run(
    granularities: tuple[int, ...] = PAPER_GRANULARITIES,
    rber_min: float = 1e-7,
    rber_max: float = 0.5,
    num_points: int = 57,
) -> Fig2Result:
    """Sweep RBER logarithmically and evaluate each granularity's curve."""
    rbers = np.logspace(np.log10(rber_min), np.log10(rber_max), num_points)
    series = {
        granularity: tuple(wasted_ratio_curve(rbers, granularity))
        for granularity in granularities
    }
    return Fig2Result(rbers=tuple(float(r) for r in rbers), series=series)


def render(result: Fig2Result, max_rows: int = 12) -> str:
    """Text rendition of the Fig 2 curves (subsampled rows)."""
    stride = max(1, len(result.rbers) // max_rows)
    indices = list(range(0, len(result.rbers), stride))
    series = {
        f"g={granularity}": [result.series[granularity][i] for i in indices]
        for granularity in sorted(result.series, reverse=True)
    }
    return format_series(
        "Fig 2: expected wasted storage ratio vs RBER",
        series,
        x_values=[f"{result.rbers[i]:.1e}" for i in indices],
        x_label="RBER",
    )
