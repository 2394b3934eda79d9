"""Checking a program leaves no reference cycles behind.

Every per-program object graph (AST, IR program, CFGs, analyses, reports,
traces) is acyclic, so reference counting frees it as soon as the oracle
returns; the cyclic garbage collector finds nothing to do.  Each test runs
with the collector disabled and counts what ``gc.collect()`` finds
unreachable afterwards.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.value import ValueAnalysis
from repro.api.project import PROCESSORS
from repro.cfg.reconstruct import reconstruct_program
from repro.minic import compile_source
from repro.minic.ast import child_nodes, walk
from repro.minic.cparser import parse_source
from repro.testing.fuzz import default_presets
from repro.testing.generator import generate_case
from repro.testing.oracle import DifferentialOracle, OracleConfig

#: Unreachable objects one checked program may leave for the collector.
#: The per-program graphs are acyclic, so this is slack for interpreter
#: internals only; before they were made acyclic a program left about
#: 15,000.
MAX_GARBAGE_PER_PROGRAM = 50

#: Loads, stores and a call: the transfer functions of all three kinds.
_SOURCE = """
int table[8];
int total;

int scale(int x) {
    return x * 3;
}

int main(void) {
    int i;
    for (i = 0; i < 8; i++) {
        table[i] = scale(i);
        total = total + table[i];
    }
    return total;
}
"""


@pytest.fixture
def collector_off():
    """Disable the cyclic collector for one test; restore its state after."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _slots():
    processors = sorted(PROCESSORS)
    return [
        (preset, processor)
        for processor in processors
        for preset in default_presets()
    ]


def test_checked_programs_leave_no_cycles(collector_off):
    found = {}
    for index, (preset, processor) in enumerate(_slots()):
        oracle = DifferentialOracle(
            OracleConfig(
                processor_factory=PROCESSORS[processor],
                max_input_vectors=2,
                analysis_options=preset.options,
            )
        )
        outcome = oracle.check(generate_case(index + 1, mix=preset.mix))
        assert outcome.ok, outcome.summary()
        del oracle, outcome
        found[f"{preset.name}/{processor}"] = gc.collect()
    assert all(
        count <= MAX_GARBAGE_PER_PROGRAM for count in found.values()
    ), found


def test_child_nodes_leaves_no_cycles(collector_off):
    nodes = list(walk(parse_source(_SOURCE)))
    gc.collect()
    for call in range(1000):
        child_nodes(nodes[call % len(nodes)])
    assert gc.collect() == 0


def test_value_analysis_leaves_no_cycles(collector_off):
    program = compile_source(_SOURCE)
    cfgs, _ = reconstruct_program(program)
    cfg = cfgs["main"]
    call_site = next(
        (block.id, instr.address)
        for block in cfg.blocks.values()
        for instr in block.instructions
        if instr.is_call
    )
    gc.collect()
    analysis = ValueAnalysis(program, cfg)
    result = analysis.run()
    assert result.accesses
    analysis.state_before(result, *call_site)
    del analysis, result
    assert gc.collect() == 0


def test_recursive_function_ast_has_no_cycle(collector_off):
    source = "int f(int n) { if (n > 0) { return f(n - 1); } return 0; }\n"
    gc.collect()
    compile_source(source, entry="f")
    assert gc.collect() == 0
