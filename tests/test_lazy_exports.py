"""Lazy package exports: each entry point imports only the modules it runs.

Every package ``__init__`` resolves its public names on first use
(:mod:`repro._lazy`).  The budget cases run in fresh interpreters, since
this test process has long since imported most of the tree: a set-up
probe, a spawned cluster worker and a service pay for every module they
load, and without a bytecode cache they compile each one.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no start-up case below may load: the version metadata, the
#: experiment stack and the offline telemetry and verification layers.
NEVER_AT_START_UP = (
    "importlib.metadata",
    "repro.perf.throughput",
    "repro.engine.lane",
    "repro.telemetry.chrome",
    "repro.telemetry.profiler",
    "repro.telemetry.prometheus",
    "repro.worstcase.theory",
    "repro.core.verify",
)

SORT = """
import numpy as np
from repro import gpu_mergesort
from repro.mergesort import batched_mergesort

data = np.random.default_rng(0).integers(0, 1 << 20, 2 * 5 * 32)
for variant in ("cf", "thrust"):
    got = batched_mergesort(data, 5, 32, 8, variant)
    assert got.as_dict() == gpu_mergesort(data, 5, 32, 8, variant).as_dict()
"""

WORKER = "import repro.cluster.pool"

SERVICE = """
import numpy as np
import repro.service.service
from repro.config import SortParams
from repro.service.backends import DEFAULT_BACKENDS

service = repro.service.service.SortService(SortParams(E=5, u=32), 8)
data = np.arange(150, dtype=np.int64)[::-1].copy()
for backend in DEFAULT_BACKENDS:
    ticket = service.submit(data, backend=backend, block=True)
    assert np.array_equal(ticket.result(timeout=60).data, np.sort(data))
assert service.metrics.snapshot()["requests"]["completed"] == len(DEFAULT_BACKENDS)
service.close()
"""


def run_fresh(code: str) -> list[str]:
    """Run *code* in a fresh interpreter on the source tree; return ``sys.modules``."""
    tail = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", code + tail],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    loaded: list[str] = json.loads(result.stdout.strip().splitlines()[-1])
    return loaded


@pytest.mark.parametrize(
    "code,absent_layers",
    [(SORT, ()), (WORKER, ("repro.service", "repro.runner")), (SERVICE, ())],
    ids=["gpu_mergesort", "cluster-worker", "service"],
)
def test_start_up_imports_stay_within_budget(code, absent_layers):
    loaded = run_fresh(code)
    assert not set(NEVER_AT_START_UP) & set(loaded)
    assert not [m for m in loaded if m.startswith(absent_layers)]


def packages() -> list[types.ModuleType]:
    """The root package and every subpackage."""
    subpackages = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    return [repro, *subpackages]


def import_lines(package: types.ModuleType) -> dict[str, tuple[str, str]]:
    """Each name a package's ``__init__`` binds by ``from ... import``, eager or not."""
    tree = ast.parse(Path(str(package.__file__)).read_text())
    statements = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            statements.extend(node.body)
    names: dict[str, tuple[str, str]] = {}
    for node in statements:
        if isinstance(node, ast.ImportFrom) and node.module and node.module != "typing":
            for alias in node.names:
                name = alias.asname or alias.name
                assert name not in names, f"{package.__name__} imports {name} twice"
                names[name] = (node.module, alias.name)
    return names


@pytest.mark.parametrize("package", packages(), ids=lambda p: p.__name__)
def test_every_export_is_the_defining_modules_object(package):
    lines = import_lines(package)
    listed = dir(package)
    for name in package.__all__:
        module, attribute = lines[name]
        value = getattr(package, name)
        assert value is getattr(importlib.import_module(module), attribute), name
        if isinstance(value, (type, types.FunctionType)):
            assert vars(sys.modules[value.__module__])[value.__name__] is value, name
        assert name in listed, name


SHADOWING = """
import importlib, pkgutil, types, repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
modules = [importlib.import_module(name) for name in names]
shadowed = [
    f"{package.__name__}.{name}"
    for package in [repro, *modules] for name in getattr(package, "__all__", ())
    if isinstance(getattr(package, name), types.ModuleType)
]
assert not shadowed, shadowed
from repro.fuzz import shrink
from repro.perf import occupancy
assert isinstance(shrink, types.FunctionType)
assert isinstance(occupancy, types.FunctionType)
"""


def test_no_export_is_shadowed_by_its_submodule():
    # A name that is also a submodule must be bound eagerly: once the
    # submodule is imported, the package attribute would be the module.
    run_fresh(SHADOWING)


def test_a_subpackage_is_an_attribute_of_its_parent():
    loaded = run_fresh("import repro\nassert repro.sim.Counters().as_dict()")
    assert "repro.sim.counters" in loaded


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(repro.sim, "no_such_name")
    assert not hasattr(repro, "no_such_module")


def test_the_version_resolves_on_first_use_from_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, flags=re.MULTILINE)
    assert match is not None
    code = (
        "import sys, repro\n"
        "assert 'importlib.metadata' not in sys.modules\n"
        f"assert repro.__version__ == {match.group(1)!r}, repro.__version__\n"
    )
    run_fresh(code)
