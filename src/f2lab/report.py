"""Named, reproducible experiment outcomes."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

REPORT_ONLY = "report-only"


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named experiment.

    `holds` is True/False for asserted statements and "report-only" for
    displayed-but-unasserted ones (asymptotic constants); exhaustive
    reports carry exact values and no seed.  Equality and serialization
    ignore elapsed_ms so exhaustive reports are byte-identical across
    runs.  Experiments do not read the clock: a report from a direct call
    carries elapsed_ms = 0.0, and `timed` fills it in.
    """

    name: str
    params: tuple[tuple[str, str], ...]
    measured: tuple[tuple[str, str], ...]
    bound: tuple[str, str]
    holds: bool | str
    method: str                       # exhaustive | monte-carlo | closed-form
    samples: int | None = None
    seed: int | None = None
    elapsed_ms: float = field(default=0.0, compare=False)

    def ok(self) -> bool:
        """True unless an asserted statement failed."""
        return self.holds is True or self.holds == REPORT_ONLY

    def to_dict(self, *, timing: bool = True) -> dict:
        d = {
            "name": self.name,
            "params": dict(self.params),
            "measured": [{"label": k, "value": v} for k, v in self.measured],
            "bound": {"label": self.bound[0], "value": self.bound[1]},
            "holds": self.holds,
            "method": self.method,
        }
        if self.samples is not None:
            d["samples"] = self.samples
        if self.seed is not None:
            d["seed"] = self.seed
        if timing:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d

    def format_line(self) -> str:
        if self.holds == REPORT_ONLY:
            tag = "INFO"
        else:
            tag = "PASS" if self.holds else "FAIL"
        parts = [f"{tag:<4} {self.name}"]
        if self.params:
            parts.append(" ".join(f"{k}={v}" for k, v in self.params))
        if self.measured:
            parts.append(" ".join(f"{k}={v}" for k, v in self.measured))
        parts.append(f"{self.bound[0]}={self.bound[1]}")
        return "  ".join(parts)


def timed(fn: Callable[..., VerificationReport], *args, **kwargs) -> VerificationReport:
    """Run one experiment and return its report with the wall time set."""
    start = time.perf_counter()
    report = fn(*args, **kwargs)
    return replace(report, elapsed_ms=(time.perf_counter() - start) * 1e3)
