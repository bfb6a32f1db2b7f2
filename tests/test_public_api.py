"""The package's public names: exactly this list, each one importable,
and the README and the import graph in step with them."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pcsub
from pcsub.network import DenseState

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "pcsub"
README = (ROOT / "README.md").read_text()

PUBLIC = [
    "ACTIVATION_KINDS",
    "CheckpointError",
    "ClampSignal",
    "ConfigFile",
    "ConfigParseError",
    "ConfigurationError",
    "Dataset",
    "DenseState",
    "EXPERIMENTS",
    "LearningCurve",
    "Network",
    "NetworkConfig",
    "Prng",
    "TeacherSpec",
    "TickReport",
    "TrainProtocol",
    "clamp_layer",
    "core_tick",
    "generate_dataset",
    "load_checkpoint",
    "load_config",
    "oracle_tick",
    "parse_config",
    "run_equivalence_suite",
    "run_experiment",
    "save_checkpoint",
    "tick_cycles",
    "train_network",
    "write_curve_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(pcsub.__all__) == PUBLIC
    # a stale name in __all__ makes ``import *`` raise AttributeError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "from pcsub import *\n"
        "import pcsub\n"
        "missing = [n for n in pcsub.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "print(len(pcsub.__all__))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(PUBLIC))]


def _fenced_blocks(text: str, lang: str = "") -> list:
    """The bodies of the ``` blocks of ``text`` opened with ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_readme_imports_only_public_names():
    imported = set()
    for block in _fenced_blocks(README, "python"):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "pcsub":
                imported.update(alias.name for alias in node.names)
    assert imported, "README imports nothing from pcsub"
    assert imported <= set(pcsub.__all__), imported - set(pcsub.__all__)


def test_readme_layout_lists_every_module():
    section = README.split("## Layout", 1)[1]
    layout = _fenced_blocks(section)[0]
    listed = set(re.findall(r"^\s+(\w+)\.py\b", layout, re.M))
    modules = {p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__")}
    assert modules == listed, modules ^ listed


def _imported_modules(path: Path) -> set:
    """Every module ``path`` imports, relative imports resolved in pcsub."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "pcsub" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            found.add(module)
            # ``from . import core`` and ``from pcsub import core``
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_no_module_imports_another_modules_private_name():
    # a name another module imports is public and documented where it is
    # defined: no pcsub module reaches into another for a ``_name``
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pcsub"
            ):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, private


def test_engine_and_oracle_do_not_import_the_per_core_reference():
    # the code under test and the code that checks it share no
    # implementation: the per-core reference imports from the network, never
    # the other way
    for name in ("network.py", "oracle.py"):
        imported = _imported_modules(PACKAGE / name)
        assert "pcsub.core" not in imported, name


def test_per_core_reference_imports_no_activation():
    # core_tick takes f(presyn) and f' from its caller and computes in
    # Python floats: core.py imports neither numpy, whose binary32 the
    # engine computes in, nor scalar32 nor the network
    imported = _imported_modules(PACKAGE / "core.py")
    banned = ("numpy", "pcsub.scalar32", "pcsub.network")
    shared = {n for n in imported if n.startswith(banned)}
    assert not shared, shared


def test_engine_imports_no_activation_table():
    # the engine writes its own f and f': network.py imports neither of
    # scalar32's tables, which the oracle reads, so no fault in one
    # activation moves the engine and a reference together
    imported = _imported_modules(PACKAGE / "network.py")
    tables = {"pcsub.scalar32.ACTIVATIONS_VEC", "pcsub.scalar32.DERIVATIVES_VEC"}
    assert not imported & tables, imported & tables


def test_reference_imports_no_binary64_or_vector_activation():
    # tests/refimpl.py writes its activations itself, binary64 equations
    # and their binary32 roundings: it imports no activation of the
    # package's and nothing at all from pcsub.scalar32
    imported = _imported_modules(ROOT / "tests" / "refimpl.py")
    names = {n.rpartition(".")[2] for n in imported if n.startswith("pcsub.")}
    shared = {"ACTIVATIONS_VEC", "DERIVATIVES_VEC", "DERIVATIVES"}
    assert not names & shared, names & shared
    from_scalar32 = {
        n for n in imported
        if n == "pcsub.scalar32" or n.startswith("pcsub.scalar32.")
    }
    assert not from_scalar32, from_scalar32


def _modules(*dirs) -> list:
    """The .py files of ``dirs`` under the repository root, sorted."""
    return sorted(path for d in dirs for path in (ROOT / d).glob("*.py"))


def test_state_layout_is_listed_once():
    # DenseState.FIELDS is the one list of the state's fields: no other
    # tuple or list of those five names, in the package, tests or demos
    fields = set(DenseState.FIELDS)
    listed = []
    for path in _modules("src/pcsub", "tests", "demos"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List)) and {
                getattr(e, "value", None) for e in node.elts
            } == fields:
                listed.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert len(listed) == 1 and listed[0].startswith("src/pcsub/network.py:"), listed


def test_only_the_benchmark_calls_the_old_constructors():
    # build_network(cfg) is Network(cfg) and DenseState.from_network(net)
    # is net.snapshot(): they stay only for bench/, which calls them
    calls = []
    for path in _modules("src/pcsub", "tests", "demos"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("build_network", "from_network"):
                    calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not calls, calls
