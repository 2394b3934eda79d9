"""Versioned, stable JSON schema for every report type.

Analysis results must cross process and machine boundaries (CLI ``--json``
output, batch pools shipping reports between workers, archived CI artifacts),
so every report type serialises to plain JSON and back **exactly**: for any
report ``r``, ``from_json(json.loads(json.dumps(to_json(r)))) == r`` holds
field for field — intervals, per-block times, challenge messages, call-context
strings, phase timings (floats survive the JSON text round-trip bit for bit
in Python).

Schema shape
------------
Every serialised object carries two envelope fields::

    {"schema": 1, "kind": "WCETReport", ...payload...}

``schema`` is the version of this module's format, bumped only on an
incompatible layout change (a new *optional* field is not a bump; renaming,
retyping or removing one is).  Loaders reject unknown versions and unknown
kinds with :class:`SchemaError` instead of guessing.  Nested objects carry
their own envelope so any subtree can be stored and reloaded on its own.

Dispatching loaders/dumpers live here rather than as methods so the report
dataclasses stay plain data; the classes expose thin ``to_json``/``from_json``
conveniences that delegate to this module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

from repro.errors import ReproError
from repro.guidelines.finding import ChallengeTier, Finding, GuidelineReport, Severity
from repro.hardware.pipeline import BlockTimeBounds
from repro.wcet.report import (
    ChallengeReport,
    FunctionReport,
    LoopReport,
    PhaseTiming,
    WCETReport,
)

#: Version of the serialisation format (see the module docstring for policy).
SCHEMA_VERSION = 1


class SchemaError(ReproError):
    """Unknown schema version or kind, or a malformed payload."""


# --------------------------------------------------------------------------- #
# Envelope helpers
# --------------------------------------------------------------------------- #
def _envelope(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    data: Dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": kind}
    data.update(payload)
    return data


def _check_envelope(data: Any, kind: Optional[str] = None) -> str:
    if not isinstance(data, dict):
        raise SchemaError(f"expected a JSON object, got {type(data).__name__}")
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {version!r} (this build reads "
            f"version {SCHEMA_VERSION}); re-serialise with a matching build"
        )
    found = data.get("kind")
    if not isinstance(found, str):
        raise SchemaError("serialised object has no 'kind' field")
    if kind is not None and found != kind:
        raise SchemaError(f"expected a serialised {kind}, found {found!r}")
    return found


def _int_keyed(mapping: Dict[int, Any]) -> Dict[str, Any]:
    """JSON object keys are strings; block ids / addresses are ints."""
    return {str(key): value for key, value in mapping.items()}


def _from_int_keyed(mapping: Dict[str, Any]) -> Dict[int, Any]:
    return {int(key): value for key, value in mapping.items()}


# --------------------------------------------------------------------------- #
# Per-type dumpers
# --------------------------------------------------------------------------- #
def _dump_block_time_bounds(bounds: BlockTimeBounds) -> Dict[str, Any]:
    return _envelope(
        "BlockTimeBounds",
        {
            "block_id": bounds.block_id,
            "wcet_cycles": bounds.wcet_cycles,
            "bcet_cycles": bounds.bcet_cycles,
            "fetch_cycles": bounds.fetch_cycles,
            "compute_cycles": bounds.compute_cycles,
            "memory_cycles": bounds.memory_cycles,
            "branch_cycles": bounds.branch_cycles,
        },
    )


def _load_block_time_bounds(data: Dict[str, Any]) -> BlockTimeBounds:
    return BlockTimeBounds(
        block_id=data["block_id"],
        wcet_cycles=data["wcet_cycles"],
        bcet_cycles=data["bcet_cycles"],
        fetch_cycles=data["fetch_cycles"],
        compute_cycles=data["compute_cycles"],
        memory_cycles=data["memory_cycles"],
        branch_cycles=data["branch_cycles"],
    )


def _dump_loop_report(loop: LoopReport) -> Dict[str, Any]:
    return _envelope(
        "LoopReport",
        {
            "function": loop.function,
            "header": loop.header,
            "bound": loop.bound,
            "source": loop.source,
            "irreducible": loop.irreducible,
            "failure_reason": loop.failure_reason,
            "detail": loop.detail,
        },
    )


def _load_loop_report(data: Dict[str, Any]) -> LoopReport:
    return LoopReport(
        function=data["function"],
        header=data["header"],
        bound=data["bound"],
        source=data["source"],
        irreducible=data["irreducible"],
        failure_reason=data["failure_reason"],
        detail=data["detail"],
    )


def _dump_phase_timing(timing: PhaseTiming) -> Dict[str, Any]:
    return _envelope(
        "PhaseTiming",
        {
            "phase": timing.phase,
            "seconds": timing.seconds,
            "detail": timing.detail,
            "iterations": timing.iterations,
        },
    )


def _load_phase_timing(data: Dict[str, Any]) -> PhaseTiming:
    return PhaseTiming(
        phase=data["phase"],
        seconds=data["seconds"],
        detail=data["detail"],
        # Pre-counter payloads (older peers) lack the field; default to 0.
        iterations=data.get("iterations", 0),
    )


def _dump_challenge_report(challenges: ChallengeReport) -> Dict[str, Any]:
    return _envelope(
        "ChallengeReport",
        {
            "tier_one": list(challenges.tier_one),
            "tier_two": list(challenges.tier_two),
        },
    )


def _load_challenge_report(data: Dict[str, Any]) -> ChallengeReport:
    return ChallengeReport(
        tier_one=list(data["tier_one"]), tier_two=list(data["tier_two"])
    )


def _dump_function_report(report: FunctionReport) -> Dict[str, Any]:
    return _envelope(
        "FunctionReport",
        {
            "name": report.name,
            "wcet_cycles": report.wcet_cycles,
            "bcet_cycles": report.bcet_cycles,
            "loop_reports": [_dump_loop_report(l) for l in report.loop_reports],
            "block_times": {
                str(block_id): _dump_block_time_bounds(bounds)
                for block_id, bounds in report.block_times.items()
            },
            "block_counts": _int_keyed(report.block_counts),
            "icache_summary": dict(report.icache_summary),
            "dcache_summary": dict(report.dcache_summary),
            "unreachable_blocks": list(report.unreachable_blocks),
            "imprecise_accesses": report.imprecise_accesses,
            "unknown_accesses": report.unknown_accesses,
            "callee_wcet": _int_keyed(report.callee_wcet),
            "ilp_nodes": report.ilp_nodes,
            "context": report.context,
        },
    )


def _load_function_report(data: Dict[str, Any]) -> FunctionReport:
    return FunctionReport(
        name=data["name"],
        wcet_cycles=data["wcet_cycles"],
        bcet_cycles=data["bcet_cycles"],
        loop_reports=[from_json(l, LoopReport) for l in data["loop_reports"]],
        block_times={
            int(block_id): from_json(bounds, BlockTimeBounds)
            for block_id, bounds in data["block_times"].items()
        },
        block_counts=_from_int_keyed(data["block_counts"]),
        icache_summary=dict(data["icache_summary"]),
        dcache_summary=dict(data["dcache_summary"]),
        unreachable_blocks=list(data["unreachable_blocks"]),
        imprecise_accesses=data["imprecise_accesses"],
        unknown_accesses=data["unknown_accesses"],
        callee_wcet=_from_int_keyed(data["callee_wcet"]),
        ilp_nodes=data["ilp_nodes"],
        context=data["context"],
    )


def _dump_wcet_report(report: WCETReport) -> Dict[str, Any]:
    return _envelope(
        "WCETReport",
        {
            "entry": report.entry,
            "processor": report.processor,
            "wcet_cycles": report.wcet_cycles,
            "bcet_cycles": report.bcet_cycles,
            "functions": {
                name: _dump_function_report(function_report)
                for name, function_report in report.functions.items()
            },
            "phases": [_dump_phase_timing(t) for t in report.phases],
            "challenges": _dump_challenge_report(report.challenges),
            "mode": report.mode,
            "error_scenario": report.error_scenario,
            "annotation_summary": dict(report.annotation_summary),
        },
    )


def _load_wcet_report(data: Dict[str, Any]) -> WCETReport:
    return WCETReport(
        entry=data["entry"],
        processor=data["processor"],
        wcet_cycles=data["wcet_cycles"],
        bcet_cycles=data["bcet_cycles"],
        functions={
            name: from_json(payload, FunctionReport)
            for name, payload in data["functions"].items()
        },
        phases=[from_json(t, PhaseTiming) for t in data["phases"]],
        challenges=from_json(data["challenges"], ChallengeReport),
        mode=data["mode"],
        error_scenario=data["error_scenario"],
        annotation_summary=dict(data["annotation_summary"]),
    )


def _dump_finding(finding: Finding) -> Dict[str, Any]:
    return _envelope(
        "Finding",
        {
            "rule": finding.rule,
            "title": finding.title,
            "severity": finding.severity.value,
            "function": finding.function,
            "line": finding.line,
            "message": finding.message,
            "challenge": finding.challenge.value,
            "wcet_impact": finding.wcet_impact,
        },
    )


def _load_finding(data: Dict[str, Any]) -> Finding:
    try:
        severity = Severity(data["severity"])
        challenge = ChallengeTier(data["challenge"])
    except ValueError as exc:
        raise SchemaError(f"serialised Finding has an unknown enum value: {exc}")
    return Finding(
        rule=data["rule"],
        title=data["title"],
        severity=severity,
        function=data["function"],
        line=data["line"],
        message=data["message"],
        challenge=challenge,
        wcet_impact=data["wcet_impact"],
    )


def _dump_guideline_report(report: GuidelineReport) -> Dict[str, Any]:
    return _envelope(
        "GuidelineReport",
        {
            "findings": [_dump_finding(f) for f in report.findings],
            "rules_checked": list(report.rules_checked),
        },
    )


def _load_guideline_report(data: Dict[str, Any]) -> GuidelineReport:
    return GuidelineReport(
        findings=[from_json(f, Finding) for f in data["findings"]],
        rules_checked=list(data["rules_checked"]),
    )


def _dump_analysis_result(result) -> Dict[str, Any]:
    # Mode keys may be None (the mode-unaware analysis), which JSON object
    # keys cannot express — serialise the dict as an ordered list of entries.
    return _envelope(
        "AnalysisResult",
        {
            "label": result.label,
            "entry": result.entry,
            "processor": result.processor,
            "reports": [
                {"mode": mode, "report": _dump_wcet_report(report)}
                for mode, report in result.reports.items()
            ],
            "guidelines": (
                _dump_guideline_report(result.guidelines)
                if result.guidelines is not None
                else None
            ),
            "cache_stats": dict(result.cache_stats),
            "seconds": result.seconds,
        },
    )


def _load_analysis_result(data: Dict[str, Any]):
    from repro.api.service import AnalysisResult

    return AnalysisResult(
        label=data["label"],
        entry=data["entry"],
        processor=data["processor"],
        reports={
            item["mode"]: from_json(item["report"], WCETReport)
            for item in data["reports"]
        },
        guidelines=(
            from_json(data["guidelines"], GuidelineReport)
            if data["guidelines"] is not None
            else None
        ),
        cache_stats=dict(data["cache_stats"]),
        seconds=data["seconds"],
    )


# --------------------------------------------------------------------------- #
# Public dispatchers
# --------------------------------------------------------------------------- #
_DUMPERS: List = [
    (BlockTimeBounds, _dump_block_time_bounds),
    (LoopReport, _dump_loop_report),
    (PhaseTiming, _dump_phase_timing),
    (ChallengeReport, _dump_challenge_report),
    (FunctionReport, _dump_function_report),
    (WCETReport, _dump_wcet_report),
    (Finding, _dump_finding),
    (GuidelineReport, _dump_guideline_report),
]

_LOADERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "BlockTimeBounds": _load_block_time_bounds,
    "LoopReport": _load_loop_report,
    "PhaseTiming": _load_phase_timing,
    "ChallengeReport": _load_challenge_report,
    "FunctionReport": _load_function_report,
    "WCETReport": _load_wcet_report,
    "Finding": _load_finding,
    "GuidelineReport": _load_guideline_report,
    "AnalysisResult": _load_analysis_result,
}


def register(
    cls: Type,
    kind: str,
    dumper: Callable[[Any], Dict[str, Any]],
    loader: Callable[[Dict[str, Any]], Any],
) -> None:
    """Extension hook: other packages add their own schema-1 kinds.

    :mod:`repro.server.wire` registers the server's wire messages here so
    they travel through the same versioned envelope machinery as the report
    types.  ``kind`` must equal ``cls.__name__`` (``from_json(expected=cls)``
    asserts the kind by class name).  Registering the same kind twice with a
    different class is a programming error and raises :class:`SchemaError`.
    """
    if kind != cls.__name__:
        raise SchemaError(f"kind {kind!r} must match the class name {cls.__name__!r}")
    existing = _LOADERS.get(kind)
    if existing is not None and existing is not loader:
        raise SchemaError(f"serialised kind {kind!r} is already registered")
    _DUMPERS.append((cls, dumper))
    _LOADERS[kind] = loader


def _load_extension_kinds() -> None:
    """Import the packages that register additional kinds (idempotent)."""
    try:
        import repro.server.wire  # noqa: F401  (registers the server kinds)
    except ImportError:  # pragma: no cover - server package always ships
        pass


def to_json(obj: Any) -> Dict[str, Any]:
    """Serialise any supported report object to a JSON-compatible dict."""
    # AnalysisResult lives in repro.api.service (which imports this module);
    # recognise it by duck type to avoid the circular import.
    if type(obj).__name__ == "AnalysisResult" and hasattr(obj, "reports"):
        return _dump_analysis_result(obj)
    for cls, dumper in _DUMPERS:
        if isinstance(obj, cls):
            return dumper(obj)
    _load_extension_kinds()
    for cls, dumper in _DUMPERS:
        if isinstance(obj, cls):
            return dumper(obj)
    raise SchemaError(f"no JSON schema for objects of type {type(obj).__name__}")


def from_json(data: Dict[str, Any], expected: Optional[Type] = None) -> Any:
    """Reconstruct a report object from its :func:`to_json` form.

    ``expected`` (a class) additionally asserts the deserialised kind.
    Raises :class:`SchemaError` on version/kind mismatches.
    """
    expected_kind = expected.__name__ if expected is not None else None
    kind = _check_envelope(data, expected_kind)
    loader = _LOADERS.get(kind)
    if loader is None:
        # Kinds registered by other packages (the server wire messages) are
        # only present once their module is imported; give them one chance.
        _load_extension_kinds()
        loader = _LOADERS.get(kind)
    if loader is None:
        raise SchemaError(f"unknown serialised kind {kind!r}")
    try:
        return loader(data)
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"serialised {kind} is missing field {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        # A field of the wrong JSON shape (a string where an object belongs,
        # an int where a list belongs, ...) must surface as a schema problem,
        # not leak the loader's internal exception to the caller — the HTTP
        # front end turns SchemaError into 400, anything else into 500.
        raise SchemaError(f"serialised {kind} is malformed: {exc}") from None
