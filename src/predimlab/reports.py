"""Verification reports: per-case outcomes with witnesses and exact margins.

A report carries a sorted list of cases keyed by canonical strings.  The
MACHINE serialization is versioned JSON, schema ``predimlab-report/1``; it
excludes wall time so that identical inputs and seeds give byte-identical
output, and carries a digest over that stable payload.  TEXT output shows
the same case data plus timing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import InputError

PASS = "PASS"
FAIL = "FAIL"
DEGENERATE = "DEGENERATE"
PARTIAL = "PARTIAL"

_STATUSES = (PASS, FAIL, DEGENERATE, PARTIAL)

REPORT_SCHEMA = "predimlab-report/1"


@dataclass(frozen=True)
class CaseResult:
    key: str
    status: str
    witness: Optional[str] = None  # serialized subset / structure / replay data
    margin: Optional[Fraction] = None
    note: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise InputError(f"unknown case status {self.status!r}")
        if self.status == FAIL and self.witness is None:
            raise InputError(f"FAIL case {self.key!r} must carry a witness")


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)
    seed: Optional[int] = None
    wall_time: Optional[float] = None

    def add(
        self,
        key: str,
        status: str,
        witness: Optional[str] = None,
        margin: Optional[Fraction] = None,
        note: str = "",
    ) -> None:
        self.cases.append(CaseResult(key, status, witness, margin, note))

    def check(
        self,
        key: str,
        witness: Optional[str],
        margin: Optional[Fraction] = None,
        note: str = "",
    ) -> None:
        """Record a case that FAILs exactly when it carries a witness."""
        self.add(key, PASS if witness is None else FAIL, witness, margin, note)

    def finalize(self) -> "VerificationReport":
        keys = [c.key for c in self.cases]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise InputError(f"duplicate case keys: {dupes}")
        self.cases.sort(key=lambda c: c.key)
        return self

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in _STATUSES}
        for c in self.cases:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts()[FAIL] == 0

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if c.status == FAIL]

    # -- serialization -----------------------------------------------------

    def _stable_payload(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "tool_version": __version__,
            "seed": self.seed,
            "summary": self.counts(),
            "cases": [
                {
                    "key": c.key,
                    "status": c.status,
                    "witness": c.witness,
                    "margin": None if c.margin is None else str(c.margin),
                    "note": c.note,
                }
                for c in self.cases
            ],
        }

    def digest(self) -> str:
        blob = json.dumps(self._stable_payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_machine(self) -> str:
        payload = self._stable_payload()
        payload["digest"] = self.digest()
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (predimlab {__version__})"]
        if self.seed is not None:
            lines.append(f"seed {self.seed}")
        for c in self.cases:
            bits = [f"  [{c.status:10s}] {c.key}"]
            if c.margin is not None:
                bits.append(f"margin={c.margin}")
            if c.note:
                bits.append(f"({c.note})")
            if c.witness is not None:
                bits.append(f"witness={c.witness}")
            lines.append(" ".join(bits))
        counts = self.counts()
        summary = " ".join(f"{k}={v}" for k, v in counts.items() if v)
        lines.append(f"summary: {len(self.cases)} cases, {summary or 'empty'}")
        if self.wall_time is not None:
            lines.append(f"wall time: {self.wall_time:.2f}s")
        lines.append(f"digest: {self.digest()}")
        return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "text":
        return report.to_text()
    if fmt == "machine":
        return report.to_machine()
    raise InputError(f"unknown report format {fmt!r}")


def subset_witness(ids) -> str:
    return "{" + ",".join(str(v) for v in sorted(ids)) + "}"
