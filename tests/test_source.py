"""Static checks on the package sources and the README."""

import ast
import re
from pathlib import Path

import pytest

import semaffine
from semaffine.config import KNOWN_KEYS

PACKAGE = Path(semaffine.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level private (``_name``) functions, classes and constants
    that nothing in the module references."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scanner_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == ["line 2: os", "line 4: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_finds_an_unused_private_name():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nC = _A\n\n"
              "def _f():\n    return _g()\n\ndef _g():\n    pass\n\nclass _K:\n    pass\n\n"
              "def public():\n    _local = 3\n    return _local\n")
    assert unused_private_names(source) == ["line 2: _B", "line 6: _f", "line 12: _K"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def ops_without_a_called_kernel(source: str, not_ops=("backward",)) -> list[str]:
    """The public module-level functions, other than ``not_ops``, that do not
    return ``_result(data, parents, op, backward_fn, kernel, ...)`` with a
    ``kernel`` that the function also calls itself."""
    missing = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_") or fn.name in not_ops:
            continue
        calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
        called = {ast.unparse(node.func) for node in calls}
        kernels = [ast.unparse(node.args[4]) for node in calls
                   if ast.unparse(node.func) == "_result" and len(node.args) >= 5]
        if not kernels or any(kernel not in called for kernel in kernels):
            missing.append(fn.name)
    return missing


def test_scanner_finds_an_op_without_a_called_kernel():
    source = ("def add(a, b):\n    return _result(np.add(a, b), (a, b), 'add', None, np.add)\n\n"
              "def neg(a):\n    return _result(-a, (a,), 'neg', None)\n\n"
              "def twice(a):\n    return _result(a * 2, (a,), 'twice', None, _twice)\n\n"
              "def backward(loss):\n    pass\n")
    assert ops_without_a_called_kernel(source) == ["neg", "twice"]


def test_every_tensor_op_records_the_kernel_it_calls():
    assert ops_without_a_called_kernel((PACKAGE / "tensor.py").read_text(encoding="utf-8")) == []


MODEL_PATH = ("model", "blocks", "affine", "hierarchy", "harness", "train")  # the modules a training step runs


def referenced_names(source: str) -> set[str]:
    """Every name the module imports or reads, bare (``softmax``) or as an
    attribute (``T.softmax``, ``loss.backward``); a ``+`` reads ``add``, which
    ``Tensor.__add__`` calls."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
            | {"add" for node in nodes if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)})


def unreferenced_public_functions(source: str, referencing: list[str]) -> list[str]:
    """The public module-level functions of ``source`` that none of the
    ``referencing`` sources names."""
    names = set().union(*(referenced_names(text) for text in referencing))
    return [fn.name for fn in ast.parse(source).body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and fn.name not in names]


def test_scanner_finds_an_unreferenced_function():
    source = "def add(a, b):\n    pass\n\ndef mul(a, b):\n    pass\n\ndef neg(a):\n    pass\n\ndef _k(a):\n    pass\n"
    referencing = ["from . import tensor as T\nT.mul(x, y)\n", "from .tensor import neg\nz = x + y\n"]
    assert unreferenced_public_functions(source, referencing) == []
    assert unreferenced_public_functions(source, referencing[:1]) == ["add", "neg"]


def unused_public_functions(source: str, elsewhere: list[str]) -> list[str]:
    """The public module-level functions of ``source`` that neither the
    ``elsewhere`` sources nor the rest of ``source``, outside the function's
    own body, names."""
    tree = ast.parse(source)
    names = set().union(*(referenced_names(text) for text in elsewhere))

    def rest(fn):
        return ast.unparse(ast.Module(body=[node for node in tree.body if node is not fn], type_ignores=[]))

    return [fn.name for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and fn.name not in names
            and fn.name not in referenced_names(rest(fn))]


def test_scanner_finds_an_unused_function():
    source = ("def helper(a):\n    return a\n\ndef api(a):\n    return helper(a)\n\n"
              "def loop(a):\n    return loop(a - 1) if a else 0\n\ndef dead(a):\n    pass\n")
    # helper is used only inside its own module, api only elsewhere; loop names only itself
    assert unused_public_functions(source, ["from .m import api\n"]) == ["loop", "dead"]
    assert unused_public_functions(source, []) == ["api", "loop", "dead"]


PERFBENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_function_is_used_by_the_package_or_perfbench(path):
    """Public API that only tests call gets deleted; a module's own use counts."""
    assert PERFBENCH, "perfbench/ sits beside src/"
    elsewhere = [p.read_text(encoding="utf-8") for p in MODULES + PERFBENCH if p != path]
    assert unused_public_functions(path.read_text(encoding="utf-8"), elsewhere) == []


def test_every_tensor_function_is_on_the_model_path():
    referencing = [(PACKAGE / f"{name}.py").read_text(encoding="utf-8") for name in MODEL_PATH]
    assert unreferenced_public_functions((PACKAGE / "tensor.py").read_text(encoding="utf-8"), referencing) == []


def truncating_int_conversions(source: str) -> list[str]:
    """The ``np.asarray(..., dtype=np.int64)`` calls, which truncate float
    entries and read bools as 0/1; integer arguments go through
    ``errors.int_array`` instead."""
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
            and any(k.arg == "dtype" and ast.unparse(k.value) == "np.int64" for k in node.keywords)]


def test_scanner_finds_a_truncating_int_conversion():
    source = ("a = np.asarray(x, dtype=np.int64)\nb = np.asarray(y, dtype=np.float64)\n"
              "c = np.array(z, dtype=np.int64)\nd = np.asarray(w)\n")
    assert truncating_int_conversions(source) == ["line 1: np.asarray(x, dtype=np.int64)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_truncating_int_conversion(path):
    assert truncating_int_conversions(path.read_text(encoding="utf-8")) == []


def readme_keys(text: str) -> list[str]:
    """The backticked names of the README's "Useful keys:" sentence, in order."""
    start = text.index("Useful keys:")
    return re.findall(r"`([^`]+)`", text[start:text.index(". ", start)])


def test_scanner_reads_the_useful_keys_sentence():
    text = "Intro `x`. Useful keys: model (`classes`, `levels`),\ntraining (`seed`). Other `y`."
    assert readme_keys(text) == ["classes", "levels", "seed"]


def test_readme_lists_exactly_the_config_keys():
    keys = readme_keys((PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8"))
    assert sorted(keys) == sorted(KNOWN_KEYS)
