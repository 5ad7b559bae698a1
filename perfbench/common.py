"""Shared pieces: the metric record, percentiles, and the correctness ledger."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Metric:
    value: float
    unit: str
    samples: int

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit,
                "samples": self.samples}


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def p50(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class Ledger:
    """Operations attempted, and which failed or came out wrong.

    ``checks`` counts, per named correctness check, how many
    comparisons ran and how many failed; every failure also counts in
    ``failed`` (the numerator of ``error_rate``).
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    checks: Dict[str, List[int]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        row = self.checks.setdefault(name, [0, 0])
        row[0] += 1
        if not ok:
            row[1] += 1
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {detail}")
        return ok

    def error(self, name: str, detail: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {detail}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def derive_rng(seed: int, *parts) -> random.Random:
    """An independent stream for one consumer of ``--seed``."""
    return random.Random("|".join(str(p) for p in (seed,) + parts))


def sub_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


@dataclass
class Window:
    """What one timed window produced: its length and the raw records
    the workload keeps in ``meta`` for its metrics and checks."""

    elapsed_s: float
    meta: Dict[str, object] = field(default_factory=dict)
