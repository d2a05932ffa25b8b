"""The forward pass's stages pass plain arrays: `encoder` reads no `inputs`
record and `heads` no `encoder` record, so neither imports the module before
it. Only `encoder` knows which rows are [CLS]: `heads` selects no rows. Only
`autodiff.save_checkpoint` syncs and renames files, so one function owns the
checkpoint-write protocol. The sources are parsed, not imported, so an
import inside a function or under `TYPE_CHECKING` counts too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "proctrack"


def proctrack_imports(source: str) -> set[str]:
    """The proctrack modules that `source` imports, by their short names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "proctrack":
                    names.add(module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "proctrack":
                    continue
                module = module.partition(".")[2]
            if module:
                names.add(module.split(".")[0])
            else:  # `from . import x` or `from proctrack import x`
                names.update(alias.name for alias in node.names)
    names.discard("")
    return names


@pytest.mark.parametrize("source", [
    "from .inputs import TimestampedInput",
    "from . import autodiff, inputs",
    "import proctrack.inputs",
    "from proctrack import inputs as i",
    "from proctrack.inputs import timestamp",
    "def f():\n    from .inputs import timestamp",
    "if TYPE_CHECKING:\n    from .inputs import TimestampedInput",
])
def test_every_import_form_is_seen(source):
    assert "inputs" in proctrack_imports(source)


@pytest.mark.parametrize("module, earlier", [("encoder", "inputs"),
                                             ("heads", "encoder")])
def test_stage_does_not_import_the_stage_before_it(module, earlier):
    imported = proctrack_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert "autodiff" in imported  # the parse sees the module's imports
    assert earlier not in imported, f"{module}.py imports {earlier}"


ROW_SELECTING_OPS = {"slice_rows"}


def names_used(source: str) -> set[str]:
    """Every name and attribute that `source` reads, calls or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


@pytest.mark.parametrize("source", [
    "ad.slice_rows(x, np.s_[..., :1, :])",
    "autodiff.slice_rows(hidden, idx)",
    "from .autodiff import slice_rows as first",
    "pick = ad.slice_rows",
])
def test_every_row_selecting_form_is_seen(source):
    assert names_used(source) & ROW_SELECTING_OPS


def test_heads_select_no_rows():
    used = names_used((SRC / "heads.py").read_text(encoding="utf-8"))
    assert "matmul" in used  # the parse sees the module's ops
    assert not used & ROW_SELECTING_OPS, "heads.py selects rows"


DURABLE_WRITE_OPS = {"replace", "fsync"}


def durable_write_users(source: str) -> set[str]:
    """The functions of `source`, by name ("" for module level), that use
    `os.replace` or `os.fsync`, however `os` or the function is imported."""
    tree = ast.parse(source)
    os_names = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
    users = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr in DURABLE_WRITE_OPS
                and isinstance(node.value, ast.Name) and node.value.id in os_names
                or isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in DURABLE_WRITE_OPS for a in node.names)):
            users.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return users


@pytest.mark.parametrize("source, users", [
    ("os.replace(tmp, path)", {""}),
    ("def save():\n    os.fsync(f.fileno())", {"save"}),
    ("class M:\n    def save(self):\n        swap = os.replace", {"save"}),
    ("import os as o\ndef save():\n    o.replace(a, b)", {"save"}),
    ("def save():\n    from os import fsync as sync", {"save"}),
    ("from dataclasses import replace\nconfig = replace(c, n=1)", set()),
    ("def f(s):\n    return s.replace('a', 'b')", set()),
])
def test_every_durable_write_form_is_seen(source, users):
    assert durable_write_users(source) == users


def test_only_save_checkpoint_syncs_and_renames():
    found = {path.stem: users for path in sorted(SRC.glob("*.py"))
             if (users := durable_write_users(path.read_text(encoding="utf-8")))}
    assert found == {"autodiff": {"save_checkpoint"}}
