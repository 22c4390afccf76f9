"""Every function the benchmark's tracer wraps exists in its lrcone module.

`Tracer.install` in `bench/spans.py` looks each name of `LAYERS` up without
a default, so a function deleted or renamed in the package would otherwise
break only a traced benchmark run (`bench/run.py --trace 1`).
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_exists():
    missing = [f"{mod}.{name}" for mod, names in load_layers().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"lrcone.{mod}"),
                                       name, None))]
    assert missing == []
