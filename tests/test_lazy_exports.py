"""The lazy package re-exports of :mod:`repro._lazy`.

Every package built on the helper must keep its public surface: each
``__all__`` name resolves to the defining submodule's own object, star
imports work, unknown names raise :class:`AttributeError`, and a name that
is also a submodule stays the object it names.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = (
    "repro.ir",
    "repro.analysis",
    "repro.analysis.domains",
    "repro.wcet",
    "repro.guidelines",
    "repro.arith",
    "repro.obs",
    "repro.api",
    "repro.server",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_the_submodules_own_object(name):
    package = importlib.import_module(name)
    assert set(package._EXPORTS) <= set(package.__all__)
    for export, submodule in package._EXPORTS.items():
        module = importlib.import_module(f"{name}.{submodule}")
        expected = module if export == submodule else getattr(module, export)
        assert getattr(package, export) is expected, export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_public_name(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export), export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


SCRIPT = """
import json, sys, types
import repro.arith.ldivmod, repro.workloads.catalog
import repro.arith, repro.workloads
import repro.ir
interpreter_before = "repro.ir.interpreter" in sys.modules
repro.ir.Interpreter
print(json.dumps({
    "ldivmod": callable(repro.arith.ldivmod)
        and not isinstance(repro.arith.ldivmod, types.ModuleType),
    "catalog": callable(repro.workloads.catalog)
        and not isinstance(repro.workloads.catalog, types.ModuleType),
    "interpreter_before": interpreter_before,
    "interpreter_after": "repro.ir.interpreter" in sys.modules,
}))
"""


def test_names_that_are_also_submodules_stay_bound_in_a_fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    outcome = json.loads(completed.stdout.splitlines()[-1])
    # Importing the submodule first must not rebind the package attribute.
    assert outcome["ldivmod"] is True
    assert outcome["catalog"] is True
    # A lazy name loads its submodule on first access, not before.
    assert outcome["interpreter_before"] is False
    assert outcome["interpreter_after"] is True


def test_eager_ldivmod_names_are_the_functions():
    import repro.arith

    # ``import repro.arith.ldivmod as module`` would fetch the function.
    module = importlib.import_module("repro.arith.ldivmod")
    assert repro.arith.ldivmod is module.ldivmod
    assert isinstance(repro.arith.ldivmod, types.FunctionType)
    assert repro.arith.DivisionResult is module.DivisionResult
