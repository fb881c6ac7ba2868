import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from qsdc import qsim
from qsdc.qsim import (
    ATOL,
    BellOutcome,
    Gate,
    StateVector,
    XOutcome,
    ZOutcome,
    apply_gate,
    fidelity,
    make_ghz,
    make_state,
    measure_bell,
    measure_x,
    measure_z,
)

S2 = 1 / np.sqrt(2)


def rng(seed=0):
    return np.random.default_rng(seed)


def born_probabilities(state, basis, qubits) -> dict:
    """Probability of every possible outcome of one measurement, from a
    one-step schedule."""
    step = (("measure", "m", basis, qubits),)
    return {out["m"]: p for p, out, _ in qsim.tree_branches(qsim.schedule_tree(state, step))}


@st.composite
def random_states(draw, num_qubits=None):
    n = num_qubits or draw(st.integers(1, 3))
    dim = 2**n
    reals = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, width=32), min_size=2 * dim, max_size=2 * dim
        )
    )
    amps = np.array(reals[:dim]) + 1j * np.array(reals[dim:])
    norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    if norm < 1e-3:
        amps[0] += 1.0
        norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(num_qubits=n, amplitudes=amps / norm)


class TestGates:
    @pytest.mark.parametrize("gate", list(Gate))
    def test_matrices_are_unitary(self, gate):
        product = gate.matrix @ gate.matrix.conj().T
        assert np.allclose(product, np.eye(2), atol=ATOL)

    def test_pauli_x_flips(self):
        assert np.allclose(Gate.PAULI_X.matrix @ [1, 0], [0, 1])
        assert np.allclose(Gate.PAULI_X.matrix @ [0, 1], [1, 0])

    def test_pauli_z_phase(self):
        assert np.allclose(Gate.PAULI_Z.matrix @ [0, 1], [0, -1])

    def test_hadamard_on_zero(self):
        assert np.allclose(Gate.HADAMARD.matrix @ [1, 0], [S2, S2])


class TestStateVector:
    def test_ghz_amplitudes(self):
        state = make_ghz()
        expected = np.zeros(8)
        expected[0] = expected[7] = S2
        assert np.allclose(state.amplitudes, expected, atol=ATOL)

    def test_ghz_norm(self):
        assert make_ghz().norm() == pytest.approx(1.0, abs=ATOL)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(num_qubits=1, amplitudes=np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "amplitudes",
        [[np.nan, 1.0], [np.inf, 0.0], [S2, 0, 0, 0, 0, 0, np.nan, S2]],
        ids=["nan-1", "inf-1", "nan-3"],
    )
    def test_rejects_a_norm_that_is_not_finite(self, amplitudes):
        with pytest.raises(ValueError, match="not normalized"):
            make_state(amplitudes)

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError, match="num_qubits"):
            StateVector(num_qubits=4, amplitudes=np.ones(16) / 4.0)

    def test_amplitudes_read_only(self):
        state = make_ghz()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    @pytest.mark.parametrize("length", [0, 1, 3, 6, 16])
    def test_make_state_rejects_lengths_other_than_2_4_8(self, length):
        with pytest.raises(ValueError, match=f"expected 2, 4 or 8 amplitudes, got {length}$"):
            make_state(np.ones(length) / np.sqrt(max(length, 1)))


class TestApplyGate:
    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(make_ghz(), Gate.HADAMARD, 3)

    @given(random_states())
    @settings(max_examples=50, deadline=None)
    def test_hadamard_involution(self, state):
        for q in range(state.num_qubits):
            twice = apply_gate(apply_gate(state, Gate.HADAMARD, q), Gate.HADAMARD, q)
            assert fidelity(twice, state) == pytest.approx(1.0, abs=1e-9)

    @given(random_states(), st.sampled_from(list(Gate)))
    @settings(max_examples=50, deadline=None)
    def test_unitarity_preserves_norm(self, state, gate):
        for q in range(state.num_qubits):
            assert apply_gate(state, gate, q).norm() == pytest.approx(1.0, abs=1e-9)

    @given(random_states(), st.sampled_from([Gate.PAULI_X, Gate.PAULI_Z]))
    @settings(max_examples=50, deadline=None)
    def test_pauli_involutions(self, state, gate):
        for q in range(state.num_qubits):
            twice = apply_gate(apply_gate(state, gate, q), gate, q)
            assert fidelity(twice, state) == pytest.approx(1.0, abs=1e-9)

    def test_hadamard_on_ghz_qubit_a(self):
        # H on Alice's qubit spreads the GHZ pair into four equal terms
        state = apply_gate(make_ghz(), Gate.HADAMARD, 0)
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[4] = expected[3] = 0.5  # |000>,|100>,|011>
        expected[7] = -0.5  # -|111>
        assert fidelity(state, make_state(expected)) == pytest.approx(1.0, abs=ATOL)


def seeded_states(num_qubits: int, count: int = 4) -> list[np.ndarray]:
    """Normalized random amplitude vectors, the same on every run."""
    generator = rng(100 + num_qubits)
    states = []
    for _ in range(count):
        amps = generator.normal(size=2**num_qubits) + 1j * generator.normal(size=2**num_qubits)
        states.append(amps / np.linalg.norm(amps))
    return states


class _FixedUniform:
    """Stands in for a generator whose next `random()` is `value`."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


_ORACLE_GATES = {Gate.IDENTITY: oracle.I2, Gate.PAULI_X: oracle.X, Gate.PAULI_Z: oracle.Z, Gate.HADAMARD: oracle.H}


class TestKernelsAgainstOracle:
    """Gates and measurements against the explicit Kronecker-product
    matrices of tests/oracle.py, on seeded random states."""

    @pytest.mark.parametrize("gate", list(Gate))
    @pytest.mark.parametrize("qubit", range(3))
    def test_gate_on_three_qubits(self, gate, qubit):
        for amps in seeded_states(3):
            got = apply_gate(make_state(amps), gate, qubit).amplitudes
            expected = oracle.op_on(_ORACLE_GATES[gate], qubit) @ amps
            np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("gate", list(Gate))
    @pytest.mark.parametrize("num_qubits,qubit", [(1, 0), (2, 0), (2, 1)])
    def test_gate_on_fewer_qubits(self, gate, num_qubits, qubit):
        factors = [oracle.I2] * num_qubits
        factors[qubit] = _ORACLE_GATES[gate]
        operator = functools.reduce(np.kron, factors)
        for amps in seeded_states(num_qubits):
            got = apply_gate(make_state(amps), gate, qubit).amplitudes
            np.testing.assert_allclose(got, operator @ amps, rtol=0, atol=ATOL)

    @staticmethod
    def _check_measurement(measure, basis, qubits, projectors):
        """Born probabilities (via born_probabilities) and, outcome by
        outcome, the sampled outcome and post-state of `measure`."""
        for amps in seeded_states(3):
            state = make_state(amps)
            probabilities = born_probabilities(state, basis, qubits)
            below = 0.0
            for outcome, projector in projectors.items():
                branch = projector @ amps
                p = float(np.vdot(branch, branch).real)
                assert probabilities[outcome] == pytest.approx(p, abs=ATOL)
                # a uniform in the middle of this outcome's interval
                got, post = measure(state, *qubits, _FixedUniform(below + p / 2))
                below += p
                assert got is outcome
                np.testing.assert_allclose(post.amplitudes, branch / np.sqrt(p), rtol=0, atol=ATOL)

    @pytest.mark.parametrize("qubit", range(3))
    def test_measure_z(self, qubit):
        projectors = {z: oracle.single_projector(oracle.KET[z.value], qubit) for z in ZOutcome}
        self._check_measurement(measure_z, "z", (qubit,), projectors)

    @pytest.mark.parametrize("qubit", range(3))
    def test_measure_x(self, qubit):
        projectors = {x: oracle.single_projector(oracle.KET_X[x.value], qubit) for x in XOutcome}
        self._check_measurement(measure_x, "x", (qubit,), projectors)

    @pytest.mark.parametrize("pair", list(itertools.permutations(range(3), 2)))
    def test_measure_bell_on_every_ordered_pair(self, pair):
        projectors = {b: oracle.bell_projector(b.value, pair) for b in BellOutcome}
        self._check_measurement(measure_bell, "bell", pair, projectors)


class TestFidelity:
    @given(random_states())
    @settings(max_examples=30, deadline=None)
    def test_self_fidelity(self, state):
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        zero = make_state([1, 0])
        one = make_state([0, 1])
        assert fidelity(zero, one) == pytest.approx(0.0, abs=ATOL)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(make_state([1, 0]), make_ghz())


class TestMeasureZ:
    def test_eigenstate(self):
        outcome, post = measure_z(make_state([1, 0]), 0, rng())
        assert outcome is ZOutcome.ZERO
        assert fidelity(post, make_state([1, 0])) == pytest.approx(1.0, abs=ATOL)

    def test_ghz_collapse(self):
        counts = {ZOutcome.ZERO: 0, ZOutcome.ONE: 0}
        generator = rng(3)
        for _ in range(400):
            outcome, post = measure_z(make_ghz(), 0, generator)
            counts[outcome] += 1
            expected = np.zeros(8)
            expected[0 if outcome is ZOutcome.ZERO else 7] = 1.0
            assert fidelity(post, make_state(expected)) == pytest.approx(1.0, abs=ATOL)
        assert 120 < counts[ZOutcome.ZERO] < 280

    def test_ghz_probabilities(self):
        probs = born_probabilities(make_ghz(), "z", (0,))
        assert probs[ZOutcome.ZERO] == pytest.approx(0.5, abs=ATOL)
        assert probs[ZOutcome.ONE] == pytest.approx(0.5, abs=ATOL)

    def test_degenerate_state_rejected(self):
        state = qsim._fast_state(1, np.zeros(2, dtype=complex))
        with pytest.raises(ValueError, match="vanishing"):
            measure_z(state, 0, rng())


class TestMeasureX:
    def test_eigenstate(self):
        plus = make_state([S2, S2])
        outcome, post = measure_x(plus, 0, rng())
        assert outcome is XOutcome.PLUS
        assert fidelity(post, plus) == pytest.approx(1.0, abs=ATOL)

    def test_encoded_ghz_is_unbiased_on_trent_qubit(self):
        # bit-0 encoding leaves Trent's qubit an even +/- mixture
        state = apply_gate(make_ghz(), Gate.HADAMARD, 0)
        probs = qsim.x_probabilities(state, 1)
        assert probs[XOutcome.PLUS] == pytest.approx(0.5, abs=ATOL)
        assert probs[XOutcome.MINUS] == pytest.approx(0.5, abs=ATOL)

    def test_encoded_ghz_is_unbiased_on_bob_qubit(self):
        state = apply_gate(make_ghz(), Gate.HADAMARD, 0)
        probs = qsim.x_probabilities(state, 2)
        assert probs[XOutcome.PLUS] == pytest.approx(0.5, abs=ATOL)

    def test_rounding_residue_is_never_drawn(self):
        # After H on A, a Bell outcome on (A, B) leaves Trent's qubit in
        # an X eigenstate; the other X outcome keeps a Born probability of
        # about 1e-33, the rounding residue of an exact 0.
        state = apply_gate(make_ghz(), Gate.HADAMARD, 0)
        bell, post = measure_bell(state, 0, 2, _FixedUniform(0.0))
        assert bell is BellOutcome.PHI_PLUS
        assert 0.0 < qsim.x_probabilities(post, 1)[XOutcome.PLUS] <= ATOL
        outcome, _ = measure_x(post, 1, _FixedUniform(0.0))
        assert outcome is XOutcome.MINUS
        assert born_probabilities(post, "x", (1,)) == {XOutcome.MINUS: pytest.approx(1.0, abs=ATOL)}


class TestMeasureBell:
    def test_eigenstate(self):
        phi_plus = make_state([S2, 0, 0, S2])
        outcome, post = measure_bell(phi_plus, 0, 1, rng())
        assert outcome is BellOutcome.PHI_PLUS
        assert fidelity(post, phi_plus) == pytest.approx(1.0, abs=ATOL)

    def test_product_state_splits_into_phis(self):
        state = make_state([1, 0, 0, 0])  # |00>
        probs = born_probabilities(state, "bell", (0, 1))
        # the psi outcomes are impossible, so they have no branch
        assert set(probs) == {BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS}
        assert probs[BellOutcome.PHI_PLUS] == pytest.approx(0.5, abs=ATOL)
        assert probs[BellOutcome.PHI_MINUS] == pytest.approx(0.5, abs=ATOL)

    def test_identical_qubits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            measure_bell(make_ghz(), 1, 1, rng())

    def test_single_qubit_state_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            measure_bell(make_state([1, 0]), 0, 1, rng())

    def test_bit0_encoding_conditioned_on_minus(self):
        # with Trent's qubit projected onto |->, the (A,B) pair is an even
        # phi+/psi- mixture
        state = apply_gate(make_ghz(), Gate.HADAMARD, 0)
        assert qsim.x_probabilities(state, 1)[XOutcome.MINUS] == pytest.approx(0.5, abs=ATOL)
        generator = rng(13)
        outcome = None
        while outcome is not XOutcome.MINUS:
            outcome, post_state = measure_x(state, 1, generator)
        probs = born_probabilities(post_state, "bell", (0, 2))
        assert probs[BellOutcome.PHI_PLUS] == pytest.approx(0.5, abs=ATOL)
        assert probs[BellOutcome.PSI_MINUS] == pytest.approx(0.5, abs=ATOL)


class TestBornCompleteness:
    @given(random_states(num_qubits=3))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_sum_to_one(self, state):
        for probs in (
            born_probabilities(state, "z", (0,)),
            qsim.x_probabilities(state, 1),
            born_probabilities(state, "bell", (0, 2)),
        ):
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


class TestIdempotentCollapse:
    @given(random_states(num_qubits=3), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_remeasure_same_basis(self, state, seed):
        generator = rng(seed)
        for q in range(3):
            outcome, post = measure_z(state, q, generator)
            again, _ = measure_z(post, q, generator)
            assert again is outcome
        outcome, post = measure_x(state, 0, generator)
        again, _ = measure_x(post, 0, generator)
        assert again is outcome
        outcome, post = measure_bell(state, 0, 1, generator)
        again, _ = measure_bell(post, 0, 1, generator)
        assert again is outcome


class TestSchedules:
    SCHEDULE = (
        ("gate", Gate.HADAMARD, 0),
        ("measure", "a", "z", (0,)),
        ("random", "r", ("p", "q", "s")),
        ("measure", "ab", "bell", (0, 2)),
        ("measure", "t", "x", (1,)),
    )

    def test_sampler_draws_in_time_order(self):
        # one rng.random() per measurement, one rng.integers per random step
        for seed in range(20):
            outcomes, state = qsim.sample_schedule(make_ghz(), self.SCHEDULE, rng(seed))
            generator = rng(seed)
            expected = apply_gate(make_ghz(), Gate.HADAMARD, 0)
            a, expected = measure_z(expected, 0, generator)
            r = ("p", "q", "s")[generator.integers(3)]
            ab, expected = measure_bell(expected, 0, 2, generator)
            t, expected = measure_x(expected, 1, generator)
            assert outcomes == {"a": a, "r": r, "ab": ab, "t": t}
            assert np.array_equal(state.amplitudes, expected.amplitudes)

    def test_tree_drops_impossible_outcomes_and_shares_random_subtrees(self):
        steps = (("measure", "a", "z", (0,)), ("random", "r", ("p", "q")))
        tree = qsim.schedule_tree(make_state([1, 0]), steps)
        assert tree.born.probs == [1.0, 0.0] and tree.children[1] is None
        random_step = tree.children[0]
        assert random_step.children[0] is random_step.children[1]
        assert not random_step.children[0].children
        zero = ZOutcome.ZERO
        assert qsim.tree_branches(tree) == [
            (0.5, {"a": zero, "r": "p"}, (0, 0)),
            (0.5, {"a": zero, "r": "q"}, (0, 1)),
        ]

    def test_enumeration_is_complete_and_matches_the_born_rule(self):
        branches = qsim.tree_branches(qsim.schedule_tree(make_ghz(), self.SCHEDULE))
        assert sum(p for p, _, _ in branches) == pytest.approx(1.0, abs=ATOL)
        # after H on A, the GHZ state gives either Z outcome of A w.p. 1/2
        for z in ZOutcome:
            p_z = sum(p for p, out, _ in branches if out["a"] is z)
            assert p_z == pytest.approx(0.5, abs=ATOL)
        # the random step splits every branch evenly
        for symbol in ("p", "q", "s"):
            p_r = sum(p for p, out, _ in branches if out["r"] == symbol)
            assert p_r == pytest.approx(1 / 3, abs=ATOL)
        assert all(p > 1e-15 for p, _, _ in branches)
        assert len({tuple(out.items()) for _, out, _ in branches}) == len(branches)
