"""The guideline checker: runs the MISRA predictability rules over a unit."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import GuidelineError
from repro.minic import ast
from repro.minic.typecheck import check_types
# The checker's result type, defined with the findings it collects.
from repro.guidelines.finding import GuidelineReport
from repro.guidelines.rules import Rule
from repro.guidelines.rules.rule_13_04 import Rule13_4
from repro.guidelines.rules.rule_13_06 import Rule13_6
from repro.guidelines.rules.rule_14_01 import Rule14_1
from repro.guidelines.rules.rule_14_04 import Rule14_4
from repro.guidelines.rules.rule_14_05 import Rule14_5
from repro.guidelines.rules.rule_16_01 import Rule16_1
from repro.guidelines.rules.rule_16_02 import Rule16_2
from repro.guidelines.rules.rule_20_04 import Rule20_4
from repro.guidelines.rules.rule_20_07 import Rule20_7


def all_rules() -> List[Rule]:
    """The nine rules of Section 4.2, in the paper's order."""
    return [
        Rule13_4(),
        Rule13_6(),
        Rule14_1(),
        Rule14_4(),
        Rule14_5(),
        Rule16_1(),
        Rule16_2(),
        Rule20_4(),
        Rule20_7(),
    ]


class GuidelineChecker:
    """Runs a configurable set of rules over a (type-checked) compilation unit."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        if not self.rules:
            raise GuidelineError("the guideline checker needs at least one rule")

    def check_unit(self, unit: ast.CompilationUnit) -> GuidelineReport:
        """Check an already-parsed unit (it is type-checked in place if needed)."""
        needs_types = any(
            isinstance(node, ast.Expr) and node.ctype is None
            for function in unit.defined_functions()
            for node in ast.walk(function.body)
        )
        if needs_types:
            check_types(unit)
        report = GuidelineReport(rules_checked=[rule.info.rule_id for rule in self.rules])
        for rule in self.rules:
            report.findings.extend(rule.check(unit))
        report.findings.sort(key=lambda f: (f.rule, f.function, f.line))
        return report

    def check_source(self, source: str) -> GuidelineReport:
        """Parse, type-check and check mini-C source text."""
        from repro.minic.cparser import parse_source

        unit = parse_source(source)
        check_types(unit)
        return self.check_unit(unit)
