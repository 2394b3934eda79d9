"""Loop/value analysis — the abstract-interpretation phase of Figure 1.

This package provides:

* numeric abstract domains (:mod:`repro.analysis.domains`): intervals with
  widening, congruences (stride information);
* a generic worklist fixpoint solver (:mod:`repro.analysis.fixpoint`);
* the register/memory value analysis (:mod:`repro.analysis.value`) that
  computes abstract register contents, abstract addresses of every memory
  access and branch-condition refinements;
* the data-flow based loop bound analysis (:mod:`repro.analysis.loopbounds`),
  modelled on the counter-loop detection the paper relies on (rules 13.4 and
  13.6 discussion);
* unreachable-code detection (:mod:`repro.analysis.reachability`, rule 14.1);
* classic liveness analysis (:mod:`repro.analysis.liveness`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Interval": "domains.interval",
    "Congruence": "domains.congruence",
    "AbstractValue": "domains.memstate",
    "AbstractMemory": "domains.memstate",
    "AbstractState": "domains.memstate",
    "ValueAnalysis": "value",
    "ValueAnalysisResult": "value",
    "LoopBound": "loopbounds",
    "LoopBoundAnalysis": "loopbounds",
    "LoopBoundResult": "loopbounds",
    "ReachabilityResult": "reachability",
    "find_unreachable_code": "reachability",
    "LivenessResult": "liveness",
    "compute_liveness": "liveness",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
