import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_layer_resolves():
    # The benchmark's traced run looks up each function of bench/spans.py's
    # LAYERS in its fdzeros module; one that is renamed or deleted would
    # crash that run and nothing else.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [f"{module}.{fn}" for module, fns in spans.LAYERS.items()
               for fn in fns if not callable(
                   getattr(importlib.import_module(f"fdzeros.{module}"), fn, None))]
    assert missing == []
