"""Cold-start guards: each subcommand loads only the layers it runs.

Every ``repro analyze`` / ``repro check`` call is a fresh process, so what it
imports is most of what it costs.  The analyzer's only LP solver is the
in-tree simplex; numpy and scipy are test-time references, and the HTTP
server stack is only for ``repro serve`` / ``--remote``.  Package re-exports
are lazy (:mod:`repro._lazy`), so an analysis loads no guideline rules,
interpreter, assembler or process pool, and a guideline check loads no
analyzer.  These tests check module names in a fresh interpreter, not
times, so they are deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import contextlib, io, json, sys
import repro.api.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.api.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

ROOT = Path(repro.__file__).resolve().parents[2]

FORBIDDEN_PACKAGES = ("numpy", "scipy")
FORBIDDEN_MODULES = ("repro.server.http", "http.server")

#: Layers a local ``repro analyze`` never runs (a module or a package prefix).
NOT_FOR_ANALYZE = (
    "repro.guidelines.checker",
    "repro.guidelines.rules",
    "repro.guidelines.predictability",
    "repro.ir.interpreter",
    "repro.ir.asmparser",
    "repro.wcet.batch",
    "multiprocessing",
    "repro.arith.softfloat",
    "repro.arith.fixedpoint",
    "repro.arith.sampling",
    "repro.analysis.liveness",
    "repro.analysis.domains.congruence",
    "repro.obs.logs",
)

#: Layers ``repro check`` never runs: the analyzer and path analysis.
NOT_FOR_CHECK = (
    "repro.wcet.analyzer",
    "repro.wcet.ipet",
    "repro.wcet.ilp",
    "repro.wcet.simplex",
    "repro.analysis.loopbounds",
)

SOURCE = """\
int data[8];
int sum(int n) {
  int i;
  int acc = 0;
  for (i = 0; i < n; i++) { acc = acc + data[i]; }
  return acc;
}
int n;
int main(void) { return sum(n); }
"""


def _modules(argv, cwd) -> list:
    """Modules loaded by one CLI call in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    outcome = json.loads(completed.stdout.splitlines()[-1])
    assert outcome["code"] == 0
    return outcome["modules"]


def _loaded(modules, names) -> list:
    """The ``modules`` that are one of ``names`` or inside one of them."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".") for name in names)
    )


def test_local_analyze_imports_no_numpy_scipy_or_server_stack(tmp_path):
    modules = _modules(["analyze", "--workload", "flight-control", "--all-modes"], tmp_path)
    heavy = [
        name for name in modules
        if name.split(".")[0] in FORBIDDEN_PACKAGES or name in FORBIDDEN_MODULES
    ]
    assert heavy == []
    # The run really went through the analyzer and the wire module.
    assert "repro.wcet.simplex" in modules
    assert "repro.server.wire" in modules
    assert _loaded(modules, NOT_FOR_ANALYZE) == []


def test_local_source_analyze_loads_only_analysis_layers(tmp_path):
    source = tmp_path / "sum.c"
    source.write_text(SOURCE)
    annotations = tmp_path / "sum.ann"
    annotations.write_text("argrange sum r3 0 8\n")
    modules = _modules(
        ["analyze", "--source", str(source), "--annotations", str(annotations)],
        tmp_path,
    )
    assert "repro.wcet.simplex" in modules
    assert _loaded(modules, NOT_FOR_ANALYZE) == []


def test_check_loads_no_analyzer(tmp_path):
    modules = _modules(["check", str(ROOT / "examples" / "problematic.c")], tmp_path)
    assert "repro.guidelines.checker" in modules
    assert _loaded(modules, NOT_FOR_CHECK) == []
