"""The sixteen decomposition identities behind the two protocols: each
left side built by gate application must match the right side assembled
amplitude by amplitude."""
import numpy as np
import pytest

from qsdc import adversary, harness, protocol, qsim
from qsdc.adversary import QUBIT_A, QUBIT_T, TrentStrategy
from qsdc.harness import assemble_computational, assemble_pair_single, verify_identities
from qsdc.protocol import EncodingVariant, ProtocolId, encode_bit
from qsdc.qsim import ATOL, BellOutcome, Gate, XOutcome, fidelity, make_ghz


def test_all_identities_verified():
    results = verify_identities()
    assert len(results) == 16
    for eq_id, residual in results:
        assert residual < ATOL, f"{eq_id} residual {residual}"


def test_identity_ids_cover_1_to_16():
    ids = [eq_id for eq_id, _ in verify_identities()]
    assert ids == [f"eq{i}" for i in range(1, 17)]


def test_double_hadamard_restores_ghz():
    state = make_ghz()
    for _ in range(2):
        state = qsim.apply_gate(state, Gate.HADAMARD, 0)
    assert fidelity(state, make_ghz()) == pytest.approx(1.0, abs=ATOL)


def test_attack_rotation_on_revised_bit1():
    # H . H . Z on Alice's qubit leaves (|000> - |111>)/sqrt(2): the Z
    # outcomes on A and T then always agree, which is what blinds Trent.
    state = make_ghz()
    state = qsim.apply_gate(state, Gate.PAULI_Z, 0)
    state = qsim.apply_gate(state, Gate.HADAMARD, 0)
    state = qsim.apply_gate(state, Gate.HADAMARD, 0)
    expected = assemble_computational({0: 1, 7: -1})
    assert fidelity(state, expected) == pytest.approx(1.0, abs=ATOL)


def test_revised_bit1_decomposition():
    lhs = encode_bit(EncodingVariant.REVISED, 1, make_ghz())
    rhs = assemble_pair_single(
        [
            (1, BellOutcome.PHI_MINUS, XOutcome.MINUS),
            (1, BellOutcome.PSI_PLUS, XOutcome.MINUS),
            (1, BellOutcome.PHI_PLUS, XOutcome.PLUS),
            (-1, BellOutcome.PSI_MINUS, XOutcome.PLUS),
        ],
        pair=(0, 2),
        single_qubit=1,
    )
    assert fidelity(lhs, rhs) == pytest.approx(1.0, abs=ATOL)


def test_variant_separation_for_bit1():
    # the original and revised bit-1 encodings are orthogonal states
    original = encode_bit(EncodingVariant.ORIGINAL, 1, make_ghz())
    revised = encode_bit(EncodingVariant.REVISED, 1, make_ghz())
    assert fidelity(original, revised) == pytest.approx(0.0, abs=ATOL)


def test_variants_agree_for_bit0():
    a = encode_bit(EncodingVariant.ORIGINAL, 0, make_ghz())
    b = encode_bit(EncodingVariant.REVISED, 0, make_ghz())
    assert fidelity(a, b) == pytest.approx(1.0, abs=ATOL)


def test_corrected_pairing_uses_alice_trent_pair():
    # in protocol 2 Trent Bell-measures (A,T), so the bit-0 decomposition
    # is taken over that pair with Bob's qubit single
    steps = protocol.schedule(ProtocolId.PROTOCOL_2, TrentStrategy.honest())
    bell_pairs = [step[3] for step in steps if step[0] == "measure" and step[2] == "bell"]
    assert bell_pairs == [(QUBIT_A, QUBIT_T)]
    assert dict(verify_identities())["eq13"] < ATOL


def _failing_identities():
    return [eq_id for eq_id, residual in verify_identities() if residual >= ATOL]


def test_verify_reads_the_encoding_rules(monkeypatch):
    # revised bit 1 swapped to X-then-H must break exactly the revised
    # bit-1 identities of both protocols
    monkeypatch.setitem(
        protocol.ENCODING_RULES[EncodingVariant.REVISED], 1, (Gate.PAULI_X, Gate.HADAMARD)
    )
    assert _failing_identities() == ["eq6", "eq8", "eq14", "eq16"]


def test_verify_reads_the_attack_steps(monkeypatch):
    # with the attack's Hadamard replaced by the identity, exactly the
    # attacked forms must break
    gate_free = tuple(
        ("gate", Gate.IDENTITY, step[2]) if step[0] == "gate" else step
        for step in adversary.ATTACK_STEPS
    )
    monkeypatch.setattr(adversary, "ATTACK_STEPS", gate_free)
    assert _failing_identities() == [
        "eq3", "eq4", "eq7", "eq8", "eq11", "eq12", "eq15", "eq16"
    ]


def test_verify_reuses_the_right_sides(monkeypatch):
    # after one call every right side comes from the cache, and only those:
    # the left sides and residuals are computed anew on each call
    verify_identities()

    def refuse(*args):
        raise AssertionError("a right side was assembled again")

    monkeypatch.setattr(harness, "assemble_pair_single", refuse)
    monkeypatch.setattr(harness, "assemble_computational", refuse)
    results = verify_identities()
    assert len(results) == 16
    assert all(residual < ATOL for _, residual in results)


def test_verify_caches_no_result(monkeypatch):
    # residuals under a broken encoding rule do not outlive the rule
    with monkeypatch.context() as patch:
        patch.setitem(protocol.ENCODING_RULES[EncodingVariant.REVISED], 1, (Gate.PAULI_X, Gate.HADAMARD))
        assert _failing_identities() == ["eq6", "eq8", "eq14", "eq16"]
    assert len(verify_identities()) == 16
    assert _failing_identities() == []


def _tensordot_pair_single(terms, pair, single_qubit):
    """`assemble_pair_single` as first written: each term an outer product
    by `np.tensordot(..., axes=0)`, its axes moved by `np.moveaxis`."""
    amps = np.zeros(8, dtype=complex)
    for coeff, bell, x in terms:
        term = np.tensordot(qsim.BELL_VECTORS[bell].reshape(2, 2), qsim.X_VECTORS[x], axes=0)
        amps += 0.5 * coeff * np.moveaxis(term, (0, 1), pair).reshape(-1)
    return amps


@pytest.mark.parametrize("pair,single_qubit", [((0, 2), 1), ((0, 1), 2)])
def test_pair_single_assembly_keeps_every_amplitude(pair, single_qubit):
    # the outer product and one transpose give bit for bit the amplitudes
    # of the tensordot construction, so every residual keeps its value
    for terms, _ in harness._RIGHT_SIDES.values():
        state = assemble_pair_single(terms, pair, single_qubit)
        assert np.array_equal(state.amplitudes, _tensordot_pair_single(terms, pair, single_qubit))
