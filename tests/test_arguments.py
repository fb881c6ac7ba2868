"""Argument checks of the qsim and protocol entry points.

Each kind of argument has one check: a state or a session plan is a
`qsim.check_member`, a bit or a qubit a `qsim.check_index`.  The first
table passes a malformed value for every such argument of every entry
point and wants a ValueError that names it, raised before any draw.  The
second pins which bit and qubit values are admitted, and as which index.
"""
import re

import numpy as np
import pytest

from qsdc import adversary, qsim
from qsdc.adversary import TrentStrategy
from qsdc.protocol import (
    EncodingVariant,
    ProtocolId,
    SessionPlan,
    encode_bit,
    round_distribution,
    run_round,
    run_round_statevector,
    run_session,
    schedule,
)
from qsdc.qsim import Gate, StateVector, make_ghz, make_state

P1 = ProtocolId.PROTOCOL_1
ORIGINAL, REVISED = EncodingVariant.ORIGINAL, EncodingVariant.REVISED
HONEST = TrentStrategy.honest()
GHZ = make_ghz()
STEPS = schedule(P1, TrentStrategy.attack())
H = Gate.HADAMARD
RANDOM = ("random", "r", ("a", "b"))

# (case, the name a rejection gives, the argument's class or index range,
# call with the argument set to v)
ARGUMENTS = [
    ("apply_gate", "state", StateVector, lambda v, rng: qsim.apply_gate(v, H, 0)),
    ("measure_z", "state", StateVector, lambda v, rng: qsim.measure_z(v, 0, rng)),
    ("measure_x", "state", StateVector, lambda v, rng: qsim.measure_x(v, 0, rng)),
    ("measure_bell", "state", StateVector, lambda v, rng: qsim.measure_bell(v, 0, 2, rng)),
    ("x_probabilities", "state", StateVector, lambda v, rng: qsim.x_probabilities(v, 0)),
    ("fidelity-a", "a", StateVector, lambda v, rng: qsim.fidelity(v, GHZ)),
    ("fidelity-b", "b", StateVector, lambda v, rng: qsim.fidelity(GHZ, v)),
    ("schedule_branches", "state", StateVector, lambda v, rng: qsim.schedule_branches(v, STEPS)),
    ("sample_schedule", "state", StateVector, lambda v, rng: qsim.sample_schedule(v, STEPS, rng)),
    # schedules with no gate or measurement step, which reach no other state check
    ("schedule_branches-empty", "state", StateVector, lambda v, rng: qsim.schedule_branches(v, ())),
    ("schedule_branches-random", "state", StateVector, lambda v, rng: qsim.schedule_branches(v, (RANDOM,))),
    ("sample_schedule-empty", "state", StateVector, lambda v, rng: qsim.sample_schedule(v, (), rng)),
    ("sample_schedule-random", "state", StateVector, lambda v, rng: qsim.sample_schedule(v, (RANDOM,), rng)),
    ("encode_bit", "state", StateVector, lambda v, rng: encode_bit(REVISED, 0, v)),
    ("attack_p1", "state", StateVector, lambda v, rng: adversary.attack_p1(v, rng)),
    ("attack_p2", "state", StateVector, lambda v, rng: adversary.attack_p2(v, rng)),
    ("honest_p1_announcement", "state", StateVector, lambda v, rng: adversary.honest_p1_announcement(v, rng)),
    ("run_session", "plan", SessionPlan, lambda v, rng: run_session(P1, REVISED, v, HONEST, rng)),
    ("apply_gate", "qubit", 3, lambda v, rng: qsim.apply_gate(GHZ, H, v)),
    ("measure_z", "qubit", 3, lambda v, rng: qsim.measure_z(GHZ, v, rng)),
    ("measure_x", "qubit", 3, lambda v, rng: qsim.measure_x(GHZ, v, rng)),
    ("measure_bell-qubit_a", "qubit", 3, lambda v, rng: qsim.measure_bell(GHZ, v, 2, rng)),
    ("measure_bell-qubit_b", "qubit", 3, lambda v, rng: qsim.measure_bell(GHZ, 0, v, rng)),
    ("x_probabilities", "qubit", 3, lambda v, rng: qsim.x_probabilities(GHZ, v)),
    ("schedule_branches-gate", "qubit", 3, lambda v, rng: qsim.schedule_branches(GHZ, (("gate", H, v),))),
    ("schedule_branches-measure", "qubit", 3,
     lambda v, rng: qsim.schedule_branches(GHZ, (("measure", "z", "z", (v,)),))),
    ("encode_bit", "bit", 2, lambda v, rng: encode_bit(REVISED, v, GHZ)),
    ("round_distribution", "bit", 2, lambda v, rng: round_distribution(P1, REVISED, v, HONEST)),
    ("run_round", "bit", 2, lambda v, rng: run_round(P1, REVISED, v, HONEST, rng)),
    ("run_round_statevector", "bit", 2, lambda v, rng: run_round_statevector(P1, REVISED, v, HONEST, rng)),
]

MALFORMED = {
    StateVector: ["psi", [1, 0], None, np.zeros(8)],
    SessionPlan: [None, "plan", (np.zeros(4, np.int8), np.ones(4, bool))],
}


def malformed_cases():
    for case, name, kind, call in ARGUMENTS:
        if isinstance(kind, type):
            values, expected = MALFORMED[kind], f"{name} must be a {kind.__name__}"
        else:
            values, expected = (-1, kind, 1.0, "0", None), f"{name} must be an integer in [0, {kind - 1}]"
        for value in values:
            message = f"^{re.escape(f'{expected}, got {value!r}')}$"
            yield pytest.param(call, value, message, id=f"{case}-{name}-{value!r:.12}")


@pytest.mark.parametrize("call, value, message", list(malformed_cases()))
def test_malformed_argument_is_named_before_any_draw(call, value, message):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        call(value, rng)
    assert rng.bit_generator.state == before


# value -> the index a qubit check on a 1-, 2- and 3-qubit state and a bit
# check take it as, None where it is rejected
ADMITTED = [
    (0, 0, 0, 0, 0),
    (1, None, 1, 1, 1),
    (2, None, None, 2, None),
    (3, None, None, None, None),
    (-1, None, None, None, None),
    (True, None, 1, 1, 1),
    (False, 0, 0, 0, 0),
    (np.True_, None, 1, 1, 1),
    (np.False_, 0, 0, 0, 0),
    (np.int64(1), None, 1, 1, 1),
    (np.uint8(0), 0, 0, 0, 0),
    (np.int16(2), None, None, 2, None),
    (np.int8(-1), None, None, None, None),
    (np.uint64(3), None, None, None, None),
    (1.0, None, None, None, None),
    (np.float64(0.0), None, None, None, None),
    ("0", None, None, None, None),
    (None, None, None, None, None),
    (np.array(1), None, None, None, None),
]
STATES = {n: make_state(np.eye(2**n)[0]) for n in (1, 2, 3)}


@pytest.mark.parametrize("value, qubit_1, qubit_2, qubit_3, bit", ADMITTED, ids=[repr(row[0]) for row in ADMITTED])
def test_admitted_qubits_and_bits(value, qubit_1, qubit_2, qubit_3, bit):
    for (n, state), qubit in zip(STATES.items(), (qubit_1, qubit_2, qubit_3)):
        if qubit is None:
            with pytest.raises(ValueError, match="^qubit"):
                qsim.apply_gate(state, H, value)
            with pytest.raises(ValueError, match="^qubit"):
                qsim.measure_z(state, value, np.random.default_rng(0))
            continue
        expected = qsim.apply_gate(state, H, qubit).amplitudes
        assert np.array_equal(qsim.apply_gate(state, H, value).amplitudes, expected), n
        assert qsim.measure_z(state, value, np.random.default_rng(5))[0] is qsim.measure_z(
            state, qubit, np.random.default_rng(5))[0]
    if bit is None:
        for call in (lambda: encode_bit(ORIGINAL, value, GHZ),
                     lambda: round_distribution(P1, ORIGINAL, value, HONEST),
                     lambda: run_round(P1, ORIGINAL, value, HONEST, np.random.default_rng(0)),
                     lambda: run_round_statevector(P1, ORIGINAL, value, HONEST, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="^bit"):
                call()
        return
    encoded = encode_bit(ORIGINAL, value, GHZ).amplitudes
    assert np.array_equal(encoded, encode_bit(ORIGINAL, bit, GHZ).amplitudes)
    assert round_distribution(P1, ORIGINAL, value, HONEST) == round_distribution(P1, ORIGINAL, bit, HONEST)
    for sampler in (run_round, run_round_statevector):
        t = sampler(P1, ORIGINAL, value, HONEST, np.random.default_rng(3))
        assert t is sampler(P1, ORIGINAL, bit, HONEST, np.random.default_rng(3)) and t.sent_bit == bit
