import numpy as np
import pytest

import oracle
from qsdc import protocol
from qsdc.adversary import (
    AnnouncementPolicy,
    AttackRecord,
    StrategyKind,
    TrentStrategy,
    attack_metrics,
    attack_p1,
    attack_p2,
    honest_p1_announcement,
)
from qsdc.protocol import EncodingVariant, ProtocolId, encode_bit, run_round
from qsdc.qsim import ATOL, BellOutcome, XOutcome, ZOutcome, make_ghz, x_probabilities

ORIGINAL, REVISED = EncodingVariant.ORIGINAL, EncodingVariant.REVISED


def rng(seed=0):
    return np.random.default_rng(seed)


def encoded(variant, bit):
    return encode_bit(variant, bit, make_ghz())


class TestStrategy:
    def test_constructors(self):
        assert TrentStrategy.honest().kind is StrategyKind.HONEST
        attack = TrentStrategy.attack(AnnouncementPolicy.UNIFORM_RANDOM)
        assert attack.kind is StrategyKind.ATTACK
        assert attack.announcement_policy is AnnouncementPolicy.UNIFORM_RANDOM

    def test_hash_is_computed_once_at_construction(self, monkeypatch):
        # a cached-model lookup hashes the strategy on every round
        strategies = [TrentStrategy.honest(), TrentStrategy.attack()]
        strategies += [TrentStrategy.attack(policy) for policy in AnnouncementPolicy]
        hashes = [hash((s.kind, s.announcement_policy)) for s in strategies]
        model = protocol._model(ProtocolId.PROTOCOL_2, REVISED, strategies[-1])

        def refuse(self):
            raise AssertionError("an enum was hashed")

        monkeypatch.setattr(StrategyKind, "__hash__", refuse)
        monkeypatch.setattr(AnnouncementPolicy, "__hash__", refuse)
        assert [hash(s) for s in strategies] == hashes
        assert protocol._model(ProtocolId.PROTOCOL_2, REVISED, strategies[-1]) is model

    @pytest.mark.parametrize(
        "fields", [(StrategyKind.ATTACK, ["uniform"]), (["attack"],)], ids=["policy", "kind"]
    )
    def test_an_unhashable_field_raises_the_strategy_check(self, fields):
        # the cached hash used to raise a bare TypeError that named no field
        with pytest.raises(ValueError, match="^trent must hold a StrategyKind and a policy or None"):
            TrentStrategy(*fields)

    def test_record_consistency_enforced(self):
        with pytest.raises(ValueError, match="guessed_bit"):
            AttackRecord(
                z_outcome_a=ZOutcome.ZERO, z_outcome_t=ZOutcome.ZERO, guessed_bit=1
            )


class TestAttackP1:
    def test_original_bit0_outcomes_always_equal(self):
        generator = rng(1)
        for _ in range(100):
            record, _ = attack_p1(encoded(ORIGINAL, 0), generator)
            assert record.z_outcome_a == record.z_outcome_t
            assert record.guessed_bit == 0

    def test_original_bit1_outcomes_always_differ(self):
        generator = rng(2)
        for _ in range(100):
            record, _ = attack_p1(encoded(ORIGINAL, 1), generator)
            assert record.z_outcome_a != record.z_outcome_t
            assert record.guessed_bit == 1

    @pytest.mark.parametrize("bit", [0, 1])
    def test_revised_outcomes_always_equal(self, bit):
        # the whole point of the revision: the attack sees the same thing
        # for either bit
        generator = rng(3)
        for _ in range(100):
            record, _ = attack_p1(encoded(REVISED, bit), generator)
            assert record.z_outcome_a == record.z_outcome_t
            assert record.guessed_bit == 0

    def test_forwarded_state_is_collapsed(self):
        generator = rng(4)
        record, state = attack_p1(encoded(ORIGINAL, 0), generator)
        # A and T are in definite computational states after the Z reads
        probs = np.abs(state.amplitudes) ** 2
        support = np.nonzero(probs > 1e-12)[0]
        a_bits = {int(i) >> 2 & 1 for i in support}
        t_bits = {int(i) >> 1 & 1 for i in support}
        assert len(a_bits) == 1 and len(t_bits) == 1


class TestAttackP2:
    def test_original_bit1_guess(self):
        generator = rng(5)
        for _ in range(100):
            record, _, _ = attack_p2(encoded(ORIGINAL, 1), generator)
            assert record.guessed_bit == 1

    @pytest.mark.parametrize("bit", [0, 1])
    def test_revised_outcomes_always_equal(self, bit):
        generator = rng(6)
        for _ in range(100):
            record, _, _ = attack_p2(encoded(REVISED, bit), generator)
            assert record.z_outcome_a == record.z_outcome_t

    def test_uniform_announcement_distribution(self):
        generator = rng(7)
        counts = {outcome: 0 for outcome in BellOutcome}
        n = 4000
        for _ in range(n):
            _, announcement, _ = attack_p2(encoded(ORIGINAL, 0), generator)
            counts[announcement] += 1
        for outcome in BellOutcome:
            assert abs(counts[outcome] / n - 0.25) < 0.03

    def test_genuine_policy_announces_reachable_outcome(self):
        generator = rng(8)
        for _ in range(50):
            _, announcement, state = attack_p2(
                encoded(ORIGINAL, 0),
                generator,
                policy=AnnouncementPolicy.GENUINE_MEASUREMENT,
            )
            assert isinstance(announcement, BellOutcome)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)


class TestHonestAnnouncement:
    def test_unbiased_on_encoded_state(self):
        probs = x_probabilities(encoded(REVISED, 0), 1)
        assert probs[XOutcome.PLUS] == pytest.approx(0.5, abs=1e-12)
        generator = rng(9)
        outcome, state = honest_p1_announcement(encoded(REVISED, 0), generator)
        assert outcome in (XOutcome.PLUS, XOutcome.MINUS)

    def test_eigenstate_announced_deterministically(self):
        from qsdc.qsim import make_state

        s2 = 1 / np.sqrt(2)
        plus_t = make_state(np.kron(np.kron([1, 0], [s2, s2]), [1, 0]))
        outcome, _ = honest_p1_announcement(plus_t, rng(10))
        assert outcome is XOutcome.PLUS


class TestAttackMetrics:
    def _attacked_transcripts(self, variant, n=600, seed=20):
        generator = rng(seed)
        bits = generator.integers(0, 2, size=n)
        return [
            run_round(
                ProtocolId.PROTOCOL_1,
                variant,
                int(b),
                TrentStrategy.attack(),
                generator,
                is_check_bit=(i % 2 == 0),
            )
            for i, b in enumerate(bits)
        ]

    def test_original_perfect_leak(self):
        accuracy, error_rate, _ = attack_metrics(self._attacked_transcripts(ORIGINAL))
        assert accuracy == 1.0
        sigma = np.sqrt(0.25 / 300)
        assert abs(error_rate - 0.5) < 4 * sigma

    def test_revised_no_leak(self):
        accuracy, _, z_equal = attack_metrics(self._attacked_transcripts(REVISED))
        assert z_equal == 1.0
        sigma = np.sqrt(0.25 / 600)
        assert abs(accuracy - 0.5) < 4 * sigma

    def test_revised_view_is_bit_independent(self):
        # exact enumeration: the attacker's joint view is identical for
        # sent bit 0 and sent bit 1
        for protocol in (1, 2):
            view0 = oracle.adversary_view(protocol, "revised", 0)
            view1 = oracle.adversary_view(protocol, "revised", 1)
            assert set(view0) == set(view1)
            for key in view0:
                assert view0[key] == pytest.approx(view1[key], abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            attack_metrics([])

    def test_no_check_rounds_give_no_error_rate(self):
        generator = rng(21)
        transcripts = [
            run_round(ProtocolId.PROTOCOL_1, ORIGINAL, bit, TrentStrategy.attack(), generator)
            for bit in (0, 1, 1, 0)
        ]
        assert not any(t.is_check_bit for t in transcripts)
        # the original encoding leaks every bit: Z outcomes agree for bit 0 only
        assert attack_metrics(transcripts) == (1.0, None, 0.5)


# Qubit sets a party can hold, in the oracle's (A, T, B) order: Trent holds
# (A, T) before he announces, Bob (A, B) in protocol 1 and B alone in
# protocol 2, and an outsider A alone.
HOLDERS = {"AT": (0, 1), "AB": (0, 2), "B": (2,), "A": (0,)}
TRACE_DISTANCES = {
    "original": {"AT": 1.0, "AB": 1.0, "B": 0.0, "A": 0.0},
    "revised": {"AT": 0.0, "AB": 0.0, "B": 0.0, "A": 0.0},
}


def holder_trace_distance(variant: str, qubits) -> float:
    """D_S between the reduced states on S of the triple encoding bit 0 and bit 1."""
    rho0, rho1 = (oracle.reduced_state(oracle.encode(variant, bit), qubits) for bit in (0, 1))
    return oracle.trace_distance(rho0, rho1)


class TestBestPossibleGuess:
    """No measurement on a set S of qubits guesses a uniform bit with
    probability above (1 + D_S)/2, for D_S the trace distance between
    the reduced states on S of the two encodings (Helstrom 1976)."""

    def test_oracle_partial_trace(self):
        ghz = oracle.ghz()
        assert np.allclose(oracle.reduced_state(ghz, (0,)), np.eye(2) / 2, atol=ATOL)
        assert np.allclose(oracle.reduced_state(ghz, (0, 1)), np.diag([0.5, 0, 0, 0.5]), atol=ATOL)
        # |+>|0>|1>: keeping (B, A) orders B first
        plus, one = oracle.KET_X["+"], oracle.KET[1]
        psi = np.kron(np.kron(plus, oracle.KET[0]), one)
        expected = np.kron(np.outer(one, one), np.outer(plus, plus))
        assert np.allclose(oracle.reduced_state(psi, (2, 0)), expected, atol=ATOL)

    @pytest.mark.parametrize("variant", list(TRACE_DISTANCES))
    def test_trace_distance_of_each_holder(self, variant):
        for holder, qubits in HOLDERS.items():
            expected = TRACE_DISTANCES[variant][holder]
            assert holder_trace_distance(variant, qubits) == pytest.approx(expected, abs=ATOL), holder

    @pytest.mark.parametrize("policy", [None, *AnnouncementPolicy])
    @pytest.mark.parametrize("variant", list(EncodingVariant))
    @pytest.mark.parametrize("protocol_id", list(ProtocolId))
    def test_the_attack_reaches_the_bound_on_trents_qubits(self, protocol_id, variant, policy):
        # the model's exact guess accuracy: 1 under the original encoding,
        # so the attack is the best measurement; 1/2 under the revised one,
        # where no measurement on (A, T) beats a coin flip
        _, hit, _, p_class, _ = protocol._model(protocol_id, variant, TrentStrategy.attack(policy)).classes
        accuracy = p_class @ hit
        bound = (1 + holder_trace_distance(variant.value, HOLDERS["AT"])) / 2
        assert accuracy <= bound + ATOL
        assert accuracy == pytest.approx(bound, abs=ATOL)
