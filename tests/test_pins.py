import json
from pathlib import Path

import pytest

import pins

STREAMS = Path(__file__).parent / "data" / "generator_streams.json"


def test_every_generator_call_has_a_pin():
    assert list(json.loads(STREAMS.read_text())) == list(pins.GENERATOR_CALLS)


@pytest.mark.parametrize("call", list(pins.GENERATOR_CALLS))
def test_generator_stream_holds(call):
    # every pinned report, CSV and digest reads these streams: when one of
    # them moves, this names the method before the pins that rest on it fail
    pinned = json.loads(STREAMS.read_text())[call]
    assert pins.stream_digest(call) == pinned, f"Generator.{call} moved its stream; {pins.versions()}"
