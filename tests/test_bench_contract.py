"""The benchmark's tracer patches proctrack functions by name; each one must
stay where it looks for it, even if the package itself stops calling it."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.traced_sites()
               if attr not in owner.__dict__]
    assert not missing, f"traced names missing: {missing}"
