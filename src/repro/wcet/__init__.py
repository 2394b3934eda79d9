"""Path analysis and the top-level WCET analyzer (Figure 1 end-to-end).

* :mod:`repro.wcet.simplex` / :mod:`repro.wcet.ilp` — a self-contained linear
  and integer-linear programming solver, the only one the IPET path analysis
  uses;
* :mod:`repro.wcet.ipet` — the Implicit Path Enumeration Technique: block and
  edge frequency variables, structural flow conservation, loop-bound and
  annotation constraints, maximisation of total execution time;
* :mod:`repro.wcet.blocktime` — per-block timing tables combining pipeline,
  cache and memory-map information;
* :mod:`repro.wcet.contexts` — call-site context sensitivity;
* :mod:`repro.wcet.analyzer` — the :class:`WCETAnalyzer` orchestrating decoding,
  loop/value analysis, cache/pipeline analysis and path analysis;
* :mod:`repro.wcet.report` — structured analysis reports.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AnalysisRequest": "batch",
    "BatchResult": "batch",
    "analyze_batch": "batch",
    "ILPProblem": "ilp",
    "ILPSolution": "ilp",
    "LinearExpression": "ilp",
    "solve_ilp": "ilp",
    "IPETBuilder": "ipet",
    "PathAnalysisResult": "ipet",
    "BlockTimeTable": "blocktime",
    "CallContext": "contexts",
    "AnalysisOptions": "analyzer",
    "WCETAnalyzer": "analyzer",
    "WCETReport": "report",
    "FunctionReport": "report",
    "ChallengeReport": "report",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
