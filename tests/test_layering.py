"""The forward pass's stages pass plain arrays: `encoder` reads no `inputs`
record and `heads` no `encoder` record, so neither imports the module before
it. Only `encoder` knows which rows are [CLS]: `heads` selects no rows. The
sources are parsed, not imported, so an import inside a function or under
`TYPE_CHECKING` counts too."""

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
