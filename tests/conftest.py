import pytest

from qsdc import protocol
from qsdc.protocol import EncodingVariant


@pytest.fixture
def encoding_rules(monkeypatch):
    """Install other encoding rules for both variants, clearing the
    decode-map, branch and model caches around the swap."""

    def clear():
        protocol._decode_map.cache_clear()
        protocol._round_branches.cache_clear()
        protocol._model.cache_clear()

    def install(bit0, bit1):
        rules = {variant: {0: bit0, 1: bit1} for variant in EncodingVariant}
        monkeypatch.setattr(protocol, "ENCODING_RULES", rules)
        clear()

    yield install
    clear()
