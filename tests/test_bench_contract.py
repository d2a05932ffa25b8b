"""The benchmark's tracer patches proctrack functions by name; each one must
stay where it looks for it, even if the package itself stops calling it, and
every tape op the model calls must be one it patches or a named gap."""

import ast
import importlib
from pathlib import Path

from proctrack.data import generate_synthetic
from proctrack.encoder import EncoderConfig
from proctrack.model import TrackerModel, vocab_from_procedures

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "proctrack"
# Tape ops the model calls that the tracer does not wrap yet, so their time is
# charged to the span that calls them. Once the tracer wraps one, drop it here.
# The status-first gathers of the last layer are `slice_rows` calls, which it
# wraps.
UNTRACED_OPS = {"attention", "cast"}


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def tape_ops() -> set[str]:
    """The autodiff functions annotated to return a Tensor."""
    return {node.name for node in parse("autodiff").body
            if isinstance(node, ast.FunctionDef) and node.returns is not None
            and "Tensor" in ast.unparse(node.returns)}


def ad_calls(module: str) -> set[str]:
    """The names `module` calls as `ad.<name>(...)`."""
    return {node.func.attr for node in ast.walk(parse(module))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "ad"}


def test_every_traced_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.traced_sites()
               if attr not in owner.__dict__]
    assert not missing, f"traced names missing: {missing}"


def test_prediction_and_training_call_every_traced_forward_stage(monkeypatch):
    """A traced run charges a pass's ops to embed, encode and the two heads,
    so a tape-free prediction and a taped loss must each call all four."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    proc = generate_synthetic(1, 1)[0]
    model = TrackerModel.fresh(vocab_from_procedures([proc]), EncoderConfig(
        d_model=8, n_heads=2, n_layers=2, d_ff=16), seed=0)
    tracer = tracing.Tracer()
    for run in (lambda: model.predict_procedure(proc),
                lambda: model.procedure_loss(proc)):
        first = tracer.mark()
        tracer.install()
        try:
            run()
        finally:
            tracer.remove()
        calls = tracer.summary(first)["calls"]
        assert all(calls[name] >= 1 for name in tracing.FORWARD_PARENTS), calls


def test_every_tape_op_the_model_calls_is_traced(monkeypatch):
    """The parse reads the sources, so a call on any path counts, taken or not."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    wrapped = {attr for owner, attr, _ in tracing.traced_sites()
               if owner is tracing.autodiff}
    called = set().union(*map(ad_calls, ("encoder", "heads", "model"))) & tape_ops()
    assert called - wrapped <= UNTRACED_OPS, f"untraced: {called - wrapped}"
    assert UNTRACED_OPS <= called - wrapped, "a listed gap is traced or unused"
