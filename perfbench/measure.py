"""Statistics helpers of the facade benchmark: percentiles, error bounds,
metric-name checks. Pure functions; unit-tested in ``perfbench/tests``."""

from __future__ import annotations

import math
import re
from typing import Sequence

#: Metric names the result line may carry (the benchmark contract's charset).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A reported tail percentile must leave at least this many samples beyond it,
#: so one outlier cannot set it.
MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ValueError if it is not a legal
    metric name (letters, digits, ``_``, ``.``, ``-``; at most 64 chars)."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def rank_of(count: int, q: float) -> int:
    """Nearest-rank index (0-based) of the ``q``-th percentile of ``count``
    sorted samples."""
    if count <= 0:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(0, math.ceil(q / 100.0 * count) - 1)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly past the nearest-rank
    ``q``-th percentile."""
    return count - 1 - rank_of(count, q)


def percentile(values: Sequence[float], q: float, min_beyond: int = 0) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ValueError when fewer than ``min_beyond`` samples lie beyond it:
    pass ``MIN_BEYOND`` for a reported tail, ``0`` for a median."""
    ordered = sorted(values)
    beyond = samples_beyond(len(ordered), q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it, need {min_beyond}")
    return ordered[rank_of(len(ordered), q)]


def wilson_upper(failed: int, attempted: int, z: float = 1.96) -> float:
    """Upper end of the Wilson score interval (95% at the default ``z``) for
    a failure rate of ``failed`` in ``attempted`` trials.

    Never 0: with no failures in n trials it is about 3.84 / (n + 3.84),
    the rate the run can exclude. It rises with every failure."""
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    if not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted")
    n = float(attempted)
    p = failed / n
    z2 = z * z
    centre = p + z2 / (2 * n)
    spread = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return min(1.0, (centre + spread) / (1 + z2 / n))
