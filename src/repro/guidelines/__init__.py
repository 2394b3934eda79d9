"""MISRA-C:2004 predictability rule checker (Section 4.2 of the paper).

The paper examines nine rules of the 2004 MISRA-C standard and discusses, for
each, whether adhering to it helps binary-level static WCET analysis.  This
package automates that examination for mini-C sources:

* each rule is a small module under :mod:`repro.guidelines.rules` producing
  :class:`~repro.guidelines.finding.Finding` objects with the paper's
  assessment attached (which WCET-analysis challenge the violation causes, and
  whether it is a tier-one or tier-two problem — or none, as for rule 14.5);
* :class:`~repro.guidelines.checker.GuidelineChecker` runs all (or selected)
  rules over a compilation unit;
* :mod:`repro.guidelines.predictability` combines the source-level findings
  with the result of actually running the WCET analyzer on the compiled
  program, quantifying the connection the paper only argues qualitatively.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Finding": "finding",
    "Severity": "finding",
    "ChallengeTier": "finding",
    "GuidelineChecker": "checker",
    "GuidelineReport": "finding",
    "all_rules": "checker",
    "PredictabilityAssessment": "predictability",
    "assess_predictability": "predictability",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
