"""Import footprint: each process of the served tree loads only what it runs.

The rest of the suite runs in one interpreter where nearly every module is
already imported, so it cannot see an import cycle, a lazy export that
resolves nowhere, or a heavy module creeping onto a process's import
path.  Every test here runs ``python -c ...`` in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: The packages whose ``__init__`` resolves its re-exports lazily.
LAZY_PACKAGES = ("repro", "repro.api", "repro.core", "repro.hw",
                 "repro.runtime", "repro.runtime.net", "repro.runtime.cluster")

#: What the serving worker must never load: the build side of the library.
BUILD_SIDE = ("networkx", "repro.hls", "repro.core", "repro.api.design",
              "repro.api.engine", "repro.experiments")


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(setup: str, names) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after ``setup`` runs."""
    return fresh(
        f"import json, sys\n{setup}\n"
        f"print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))"
    )


def test_worker_loads_no_build_side(tmp_path):
    from repro.config import RNNSpec
    from repro.runtime import compile

    artifact = tmp_path / "model.npz"
    spec = RNNSpec("lstm", 10, (32,), 6, block_sizes=(4,))
    compile(spec, backend="fixed", weight_bits=12, cache=False).save(artifact)
    setup = (
        "import repro.runtime.net.worker\n"
        "from repro.runtime.model import CompiledModel\n"
        "from repro.runtime.server import Server\n"
        f"Server(CompiledModel.load({str(artifact)!r})).close()"
    )
    assert loaded(setup, BUILD_SIDE) == []


def test_worker_loads_no_in_process_server():
    # The worker hosts the round core; the in-process Server's threads
    # and condition variables are not on its path.
    setup = "import repro.runtime.net.worker"
    names = ["repro.runtime.server", "concurrent.futures"]
    assert loaded(setup, names) == []


def test_gateway_loads_no_numpy():
    # The launcher's import: the Gateway forwards payload bytes unparsed.
    setup = "from repro.runtime.cluster import BackendFleet, Gateway"
    assert loaded(setup, ["numpy"]) == []


def test_cli_loads_no_networkx():
    assert loaded("import repro.cli", ["networkx", "repro.hls"]) == []


def test_cli_cell_choices_are_the_registry():
    # The built-in cells register in repro.api.registry itself, so the
    # choices are complete before any cell module is imported.
    choices, names = fresh(
        "import json\n"
        "from repro.api import CELL_REGISTRY\n"
        "from repro.cli import build_parser\n"
        "price = build_parser()._subparsers._group_actions[0].choices['price']\n"
        "cell = next(a for a in price._actions if '--cell' in a.option_strings)\n"
        "print(json.dumps([list(cell.choices), list(CELL_REGISTRY.names())]))"
    )
    assert choices == names and "lstm" in choices


@pytest.mark.parametrize(
    "module", ["repro.hw.accelerator", "repro.core.phase2", "repro.hw.emulator"]
)
def test_imports_first_without_a_cycle(module):
    assert fresh(f"import json, {module}\nprint(json.dumps(True))")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves_and_is_listed(package):
    missing = fresh(
        f"import json, importlib\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"listed = dir(pkg)\n"
        f"print(json.dumps([n for n in pkg.__all__\n"
        f"                  if n not in listed or not hasattr(pkg, n)]))"
    )
    assert missing == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    import importlib

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(package), "no_such_name")


def test_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)
