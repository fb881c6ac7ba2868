"""The benchmark's traced run wraps its layers by name: a renamed or
deleted entry point breaks it.  This checks, in the tier-1 suite, that
every name in `perfbench/spans.py`'s LAYERS still exists and that
`install` and `restore` leave each one as it was."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_installs_and_restores():
    spans = load_spans()
    owners = spans._owners()

    def current():
        return [vars(owners[owner])[attr] for owner, _, attr in (layer.rpartition(".") for layer in spans.LAYERS)]

    originals = current()
    saved = spans.install(spans.Recorder())
    try:
        assert len(saved) == len(spans.LAYERS)
        assert all(now is not raw for now, raw in zip(current(), originals))
    finally:
        spans.restore(saved)
    assert all(now is raw for now, raw in zip(current(), originals))
