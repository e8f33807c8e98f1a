"""Structured verification reports.

A report is a list of check records, each carrying the identity it
verifies, a digest of its inputs, the measured values, the tolerance, the
verdict, and the bounds the verdict applied.  Wall-clock timings ride
along in a separate section that is excluded from the deterministic report
body, so identical inputs and seed produce byte-identical bodies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass
class CheckRecord:
    name: str
    anchor: str  # the verified identity, in plain ASCII math
    inputs_digest: str
    measured: dict
    tolerance: float
    passed: bool
    bounds: list = field(default_factory=list)  # [measured key, "<=" or ">=", limit]


@dataclass
class VerificationReport:
    tool: dict
    state_spec: dict | None
    checks: list[CheckRecord]
    overall_pass: bool
    wall_clock_s: dict = field(default_factory=dict)


def digest_inputs(obj) -> str:
    """Short stable digest of a JSON-able input description."""
    payload = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_report(
    tool: dict,
    state_spec: dict | None,
    checks: list[CheckRecord],
    wall_clock_s: dict,
) -> VerificationReport:
    return VerificationReport(
        tool=tool,
        state_spec=state_spec,
        checks=checks,
        overall_pass=all(c.passed for c in checks),
        wall_clock_s=wall_clock_s,
    )


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2)

