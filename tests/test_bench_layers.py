"""Every function the benchmark's tracer wraps exists in its lrcone module,
and the Hilbert search calls the membership mask the benchmark counts.

`Tracer.install` in `bench/spans.py` looks each name of `LAYERS` up without
a default, so a function deleted or renamed in the package would otherwise
break only a traced benchmark run (`bench/run.py --trace 1`).
"""

import importlib
import importlib.util
from pathlib import Path

from lrcone import hilbert

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


def test_the_counted_member_mask_is_called(monkeypatch):
    # `bench/worker.py` counts hilbert.box_points by wrapping
    # hilbert._member_mask, looked up with a None default: a renamed mask,
    # or a search that no longer calls it, would read 0 without an error
    rows = []
    mask = hilbert._member_mask

    def counted(flat_rows, *args):
        rows.append(len(flat_rows))
        return mask(flat_rows, *args)
    monkeypatch.setattr(hilbert, "_member_mask", counted)
    hilbert.hilbert_basis_bounded(2, 3, "EqLR", 2)
    assert sum(rows) > 0
