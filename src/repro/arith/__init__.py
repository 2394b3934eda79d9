"""Software arithmetic (Section 4.3 "Software Arithmetic" and Table 1).

The paper's only quantitative artefact is the iteration-count histogram of the
CodeWarrior ``lDivMod`` 32-bit unsigned division routine: an algorithm with
excellent average-case behaviour (one iteration in > 99.8 % of random inputs)
and terrible WCET predictability (rare inputs need hundreds of iterations, and
there is no simple way to tell from the inputs).  This package provides

* :mod:`repro.arith.ldivmod` — a reimplementation of the estimate-and-correct
  division with an iteration counter (the Table 1 subject);
* :mod:`repro.arith.restoring` — the classic restoring shift-subtract division
  with a *fixed* iteration count (the WCET-friendly alternative);
* :mod:`repro.arith.softfloat` — IEEE-754 single-precision software floating
  point (add/sub/mul/div) with data-dependent normalisation loops;
* :mod:`repro.arith.fixedpoint` — Q16.16 fixed-point arithmetic whose
  operations are constant-time (the "different representation" remedy);
* :mod:`repro.arith.sampling` — the random-sampling harness that regenerates
  Table 1 with the paper's exact bucket boundaries.
"""

from repro._lazy import lazy_exports

# ``ldivmod`` is both a function and the submodule defining it, so the
# ldivmod names are bound eagerly (see :mod:`repro._lazy`); the module is
# small and imports nothing heavy.
from repro.arith.ldivmod import DivisionResult, ldivmod, LDIVMOD_WORST_CASE_BOUND

_EXPORTS = {
    "restoring_divmod": "restoring",
    "RESTORING_ITERATIONS": "restoring",
    "SoftFloat": "softfloat",
    "float_add": "softfloat",
    "float_sub": "softfloat",
    "float_mul": "softfloat",
    "float_div": "softfloat",
    "Fixed": "fixedpoint",
    "FIXED_FRACTION_BITS": "fixedpoint",
    "IterationHistogram": "sampling",
    "sample_iteration_histogram": "sampling",
    "PAPER_TABLE1_BUCKETS": "sampling",
    "PAPER_TABLE1_ROWS": "sampling",
}

__all__ = ["DivisionResult", "ldivmod", "LDIVMOD_WORST_CASE_BOUND", *_EXPORTS]
__getattr__ = lazy_exports(__name__, _EXPORTS)
