"""Findings produced by the guideline checker, and the report collecting them."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.Enum):
    """MISRA-C rule categories."""

    REQUIRED = "required"
    ADVISORY = "advisory"


class ChallengeTier(enum.Enum):
    """Which class of WCET-analysis challenge a violation causes.

    The paper distinguishes *tier-one* challenges (without solving them no
    WCET bound can be computed at all) from *tier-two* challenges (the bound
    exists but is needlessly loose).  Some rules — notably 14.5 (continue) —
    have *no* impact on binary-level timing analysis; the paper makes a point
    of saying so, and the checker preserves that assessment.
    """

    TIER_ONE = "tier-1"
    TIER_TWO = "tier-2"
    NONE = "none"


@dataclass
class Finding:
    """One rule violation (or informational note) at a source location."""

    rule: str                    # e.g. "13.4"
    title: str
    severity: Severity
    function: str
    line: int
    message: str
    #: The WCET-analysis challenge this violation causes (the paper's column).
    challenge: ChallengeTier = ChallengeTier.NONE
    #: Free-text explanation of the timing-analysis impact.
    wcet_impact: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        location = f"{self.function}:{self.line}" if self.function else f"line {self.line}"
        return (
            f"[MISRA {self.rule}] {location}: {self.message} "
            f"({self.challenge.value} impact)"
        )

    def to_json(self) -> dict:
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "Finding":
        from repro.api import serialize

        return serialize.from_json(data, cls)


@dataclass
class GuidelineReport:
    """All findings of one checker run, with per-rule and per-tier summaries."""

    findings: List[Finding] = field(default_factory=list)
    rules_checked: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def by_rule(self) -> Dict[str, List[Finding]]:
        result: Dict[str, List[Finding]] = {rule: [] for rule in self.rules_checked}
        for finding in self.findings:
            result.setdefault(finding.rule, []).append(finding)
        return result

    def findings_for(self, rule: str) -> List[Finding]:
        return [finding for finding in self.findings if finding.rule == rule]

    def violations_with_wcet_impact(self) -> List[Finding]:
        return [
            finding
            for finding in self.findings
            if finding.challenge is not ChallengeTier.NONE
        ]

    def tier_one_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.challenge is ChallengeTier.TIER_ONE]

    def tier_two_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.challenge is ChallengeTier.TIER_TWO]

    def count(self, rule: Optional[str] = None) -> int:
        if rule is None:
            return len(self.findings)
        return len(self.findings_for(rule))

    @property
    def is_clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        from repro.api import serialize

        return serialize.to_json(self)

    @classmethod
    def from_json(cls, data: dict) -> "GuidelineReport":
        from repro.api import serialize

        return serialize.from_json(data, cls)

    def summary(self) -> Dict[str, int]:
        return {rule: len(found) for rule, found in sorted(self.by_rule().items())}

    def format_text(self) -> str:
        lines = ["MISRA-C:2004 predictability check"]
        lines.append("=" * len(lines[0]))
        if not self.findings:
            lines.append("no findings — all checked rules are satisfied")
        for finding in self.findings:
            lines.append(f"  {finding}")
        lines.append("")
        lines.append(
            f"total: {len(self.findings)} findings "
            f"({len(self.tier_one_findings())} tier-one, "
            f"{len(self.tier_two_findings())} tier-two, "
            f"{len(self.findings) - len(self.violations_with_wcet_impact())} style-only)"
        )
        return "\n".join(lines)
