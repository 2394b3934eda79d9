"""Register-level intermediate representation ("the binary").

The paper analyses binary executables with aiT.  We do not have real target
binaries, so this package provides a small RISC-like register IR that plays the
role of the binary: the mini-C compiler (:mod:`repro.minic`) lowers source code
into it, the CFG reconstruction (:mod:`repro.cfg`) decodes it, the value and
loop-bound analyses (:mod:`repro.analysis`) interpret it abstractly, the
hardware model (:mod:`repro.hardware`) assigns instruction timings, and the
concrete :class:`~repro.ir.interpreter.Interpreter` executes it to provide
measured execution times for comparison against the static WCET bound.

Public API
----------

* :class:`Opcode`, :class:`Instruction`, operand types (:class:`Reg`,
  :class:`Imm`, :class:`Sym`, :class:`Label`)
* :class:`Function`, :class:`DataObject`, :class:`Program`
* :class:`ProgramBuilder`, :class:`FunctionBuilder` — fluent construction
* :func:`parse_assembly` — textual assembly front end
* :class:`Interpreter`, :class:`ExecutionResult` — concrete execution
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Opcode": "instructions",
    "OpClass": "instructions",
    "Operand": "instructions",
    "Reg": "instructions",
    "Imm": "instructions",
    "Sym": "instructions",
    "Label": "instructions",
    "Instruction": "instructions",
    "Function": "program",
    "DataObject": "program",
    "Program": "program",
    "ProgramBuilder": "builder",
    "FunctionBuilder": "builder",
    "parse_assembly": "asmparser",
    "Interpreter": "interpreter",
    "MachineState": "interpreter",
    "ExecutionResult": "interpreter",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
