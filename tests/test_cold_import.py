"""Cold-start guard: a local ``repro analyze`` loads no heavy dependencies.

Every ``repro analyze`` / ``repro check`` call is a fresh process, so what it
imports is most of what it costs.  The analyzer's only LP solver is the
in-tree simplex; numpy and scipy are test-time references, and the HTTP
server stack is only for ``repro serve`` / ``--remote``.  This test checks
module names in a fresh interpreter, not times, so it is deterministic.
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
import repro.api.cli, repro.workloads, repro.server.wire
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.api.cli.main(
        ["analyze", "--workload", "flight-control", "--all-modes"]
    )
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

FORBIDDEN_PACKAGES = ("numpy", "scipy")
FORBIDDEN_MODULES = ("repro.server.http", "http.server")


def test_local_analyze_imports_no_numpy_scipy_or_server_stack(tmp_path):
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    outcome = json.loads(completed.stdout.splitlines()[-1])
    assert outcome["code"] == 0
    modules = outcome["modules"]
    heavy = [
        name for name in modules
        if name.split(".")[0] in FORBIDDEN_PACKAGES or name in FORBIDDEN_MODULES
    ]
    assert heavy == []
    # The run really went through the analyzer and the wire module.
    assert "repro.wcet.simplex" in modules
    assert "repro.server.wire" in modules
