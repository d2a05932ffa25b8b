"""The benchmark's tracer patches proctrack functions by name; each one must
stay where it looks for it, even if the package itself stops calling it."""

import importlib
from pathlib import Path

from proctrack.data import generate_synthetic
from proctrack.encoder import EncoderConfig
from proctrack.model import TrackerModel, vocab_from_procedures

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
