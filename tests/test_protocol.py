import dataclasses
import functools
import hashlib
import itertools
import json
import operator
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import pins
from fit import binomial_tails, chi2_critical
from qsdc import adversary, qsim
from qsdc import protocol as protocol_module
from qsdc.adversary import AnnouncementPolicy, StrategyKind, TrentStrategy
from qsdc.harness import RunConfig, emit_tables, run_experiment
from qsdc.protocol import (
    ENCODING_RULES,
    EncodingVariant,
    ProtocolId,
    RoundBranch,
    RoundTranscript,
    SessionPlan,
    decode,
    encode_bit,
    extract_message,
    round_distribution,
    run_round,
    run_round_statevector,
    run_session,
    schedule,
)
from qsdc.qsim import ATOL, BellOutcome, Gate, XOutcome, ZOutcome, fidelity, make_ghz

P1, P2 = ProtocolId.PROTOCOL_1, ProtocolId.PROTOCOL_2
ORIGINAL, REVISED = EncodingVariant.ORIGINAL, EncodingVariant.REVISED
PLUS, MINUS = XOutcome.PLUS, XOutcome.MINUS
PHI_P, PHI_M = BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS
PSI_P, PSI_M = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS

ALL_COMBOS = [(p, v) for p in ProtocolId for v in EncodingVariant]

_ORACLE_X = {"+": PLUS, "-": MINUS}
_ORACLE_Z = {"0": ZOutcome.ZERO, "1": ZOutcome.ONE}


def rng(seed=0):
    return np.random.default_rng(seed)


class TestEncoding:
    def test_bit0_is_hadamard_only_for_both_variants(self):
        for variant in EncodingVariant:
            assert ENCODING_RULES[variant][0] == (Gate.HADAMARD,)

    def test_bit1_pauli_differs(self):
        assert ENCODING_RULES[ORIGINAL][1] == (Gate.PAULI_X, Gate.HADAMARD)
        assert ENCODING_RULES[REVISED][1] == (Gate.PAULI_Z, Gate.HADAMARD)

    @pytest.mark.parametrize("variant,bit", [(v, b) for v in EncodingVariant for b in (0, 1)])
    def test_matches_oracle_state(self, variant, bit):
        state = encode_bit(variant, bit, make_ghz())
        expected = oracle.encode(variant.value, bit)
        overlap = abs(np.vdot(expected, state.amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=ATOL)

    def test_original_bit1_flips_alice_qubit(self):
        state = encode_bit(ORIGINAL, 1, make_ghz())
        expected = np.zeros(8, dtype=complex)
        # H_A (|100> + |011>)/sqrt(2)
        expected[[0, 3]] = 0.5
        expected[4] = -0.5
        expected[7] = 0.5
        assert abs(np.vdot(expected, state.amplitudes)) ** 2 == pytest.approx(1.0, abs=ATOL)

    def test_invalid_bit(self):
        with pytest.raises(ValueError, match="bit"):
            encode_bit(ORIGINAL, 2, make_ghz())
        # the model is a pair indexed by bit: -1 would read bit 1's table
        for bit in (2, -1, 1.0):
            with pytest.raises(ValueError, match="bit must be 0 or 1"):
                round_distribution(P1, REVISED, bit, TrentStrategy.honest())
            for sampler in (run_round, run_round_statevector):
                with pytest.raises(ValueError, match="bit must be 0 or 1"):
                    sampler(P1, REVISED, bit, TrentStrategy.honest(), rng())


def test_numpy_integers_and_bools_are_bits():
    # each entry point reads its tables with the int it returns: a numpy
    # bool could not index the model's per-bit tuples
    honest = TrentStrategy.honest()
    for bit in (np.int64(1), np.uint8(0), True, False, np.True_, np.False_):
        for sampler in (run_round, run_round_statevector):
            t = sampler(P1, ORIGINAL, bit, honest, rng(3))
            assert t.sent_bit == bit and t is sampler(P1, ORIGINAL, int(bit), honest, rng(3))
        assert round_distribution(P1, REVISED, bit, honest) == round_distribution(P1, REVISED, int(bit), honest)
        encoded = encode_bit(ORIGINAL, bit, make_ghz()).amplitudes
        assert np.array_equal(encoded, encode_bit(ORIGINAL, int(bit), make_ghz()).amplitudes)


BAD_TRENTS = {
    "kind": TrentStrategy("honest"),
    "policy": TrentStrategy(StrategyKind.ATTACK, "uniform"),
    "honest-with-policy": TrentStrategy(StrategyKind.HONEST, AnnouncementPolicy.UNIFORM_RANDOM),
    "str": "honest",
    "none": None,
    "list": [StrategyKind.HONEST],
}


@pytest.mark.parametrize("trent", BAD_TRENTS.values(), ids=list(BAD_TRENTS))
@pytest.mark.parametrize("protocol", list(ProtocolId))
def test_every_round_entry_point_rejects_a_malformed_strategy(protocol, trent):
    # before, `TrentStrategy("honest")` ran the insider attack
    plan = SessionPlan.build([0, 1] * 10, 0.5, rng())
    calls = {
        "schedule": lambda: schedule(protocol, trent),
        "round_distribution": lambda: round_distribution(protocol, REVISED, 0, trent),
        "run_round": lambda: run_round(protocol, REVISED, 0, trent, rng()),
        "run_round_statevector": lambda: run_round_statevector(protocol, REVISED, 1, trent, rng()),
        "run_session": lambda: run_session(protocol, ORIGINAL, plan, trent, rng()),
        "RunConfig": lambda: RunConfig(protocol=protocol, trent=trent),
    }
    messages = set()
    for name, call in calls.items():
        with pytest.raises(ValueError, match="^trent") as info:
            call()
            pytest.fail(f"{name} accepted {trent}")
        messages.add(str(info.value))
    # RunConfig's ConfigError carries the entry points' text
    assert len(messages) == 1, messages


@pytest.mark.parametrize(
    "protocol,variant,field",
    [(3, REVISED, "protocol"), (1, REVISED, "protocol"), (P1, "revised", "variant"), (P2, P1, "variant"),
     ([1], REVISED, "protocol"), (P1, ["revised"], "variant"), (P2, "x", "variant"), (3, "x", "variant")],
    ids=["protocol-3", "protocol-1", "variant-str", "variant-protocol", "protocol-list", "variant-list",
         "variant-x", "both"],
)
def test_every_round_entry_point_rejects_a_protocol_or_variant_not_an_enum(protocol, variant, field):
    # before, protocol 3 (or 1) ran as protocol 2, and "revised" raised a KeyError
    honest = TrentStrategy.honest()
    plan = SessionPlan.build([0, 1] * 10, 0.5, rng())
    calls = {
        "round_distribution": lambda: round_distribution(protocol, variant, 0, honest),
        "run_round": lambda: run_round(protocol, variant, 0, honest, rng()),
        "run_round_statevector": lambda: run_round_statevector(protocol, variant, 1, honest, rng()),
        "run_session": lambda: run_session(protocol, variant, plan, honest, rng()),
        "RunConfig": lambda: RunConfig(protocol=protocol, variant=variant),
    }
    messages = set()
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{field}") as info:
            call()
            pytest.fail(f"{name} accepted {protocol!r}, {variant!r}")
        messages.add(str(info.value))
    # RunConfig's ConfigError carries the entry points' text
    assert len(messages) == 1, messages


class TestDecodeTables:
    def test_decode_p1_rows(self):
        assert decode(P1, PLUS, PHI_P) == 1
        assert decode(P1, PLUS, PSI_M) == 1
        assert decode(P1, PLUS, PHI_M) == 0
        assert decode(P1, PLUS, PSI_P) == 0
        assert decode(P1, MINUS, PHI_P) == 0
        assert decode(P1, MINUS, PSI_M) == 0
        assert decode(P1, MINUS, PHI_M) == 1
        assert decode(P1, MINUS, PSI_P) == 1

    def test_decode_p1_original_rows(self):
        rows = emit_tables()[P1, ORIGINAL]
        mapping = {(ann, meas): bit for ann, meas, bit, _ in rows}
        assert mapping[(MINUS, PHI_P)] == 0
        assert mapping[(PLUS, PSI_P)] == 0
        assert mapping[(PLUS, PHI_P)] == 1
        assert mapping[(MINUS, PSI_P)] == 1

    def test_decode_p2_rows(self):
        assert decode(P2, PHI_P, PLUS) == 1
        assert decode(P2, PSI_M, PLUS) == 1
        assert decode(P2, PHI_P, MINUS) == 0
        assert decode(P2, PSI_M, MINUS) == 0
        assert decode(P2, PHI_M, PLUS) == 0
        assert decode(P2, PSI_P, PLUS) == 0
        assert decode(P2, PHI_M, MINUS) == 1
        assert decode(P2, PSI_P, MINUS) == 1

    def test_totality(self):
        for x in XOutcome:
            for bell in BellOutcome:
                assert decode(P1, x, bell) in (0, 1)
                assert decode(P2, bell, x) in (0, 1)

    @pytest.mark.parametrize(
        "protocol,announcement,measurement,message",
        [(P2, PLUS, PHI_P, "PROTOCOL_2 announces XOutcome.PLUS with Bob measuring BellOutcome.PHI_PLUS"),
         (P1, PLUS, PLUS, "PROTOCOL_1 announces XOutcome.PLUS with Bob measuring XOutcome.PLUS"),
         (P1, [PLUS], PHI_P, r"PROTOCOL_1 announces \[<XOutcome.PLUS: '\+'>\] with Bob"),
         ([1], PLUS, PHI_P, r"^protocol must be a ProtocolId, got \[1\]"),
         (2, PHI_P, PLUS, "^protocol must be a ProtocolId, got 2")],
        ids=["p2-swapped", "p1-two-x", "unhashable-outcome", "unhashable-protocol", "protocol-int"],
    )
    def test_a_pair_no_honest_round_yields_raises_value_error(self, protocol, announcement, measurement,
                                                              message):
        with pytest.raises(ValueError, match=message):
            decode(protocol, announcement, measurement)

    def test_rejects_a_map_that_is_not_single_valued(self, encoding_rules):
        encoding_rules((Gate.HADAMARD,), (Gate.HADAMARD,))
        with pytest.raises(ValueError, match="not single-valued"):
            decode(P1, PLUS, PHI_P)

    def test_a_warm_run_reads_the_installed_rules(self, encoding_rules):
        # the harness reads the one cached model, so clearing it drops the
        # old rules' outcome classes too
        config = RunConfig(protocol=P1, variant=REVISED, message_length=50, rounds_repeat=2)
        run_experiment(config)
        encoding_rules((Gate.HADAMARD,), (Gate.PAULI_Z,))
        with pytest.raises(ValueError, match="not single-valued"):
            run_experiment(config)

    def test_rejects_a_map_that_misses_outcome_pairs(self, encoding_rules):
        # without the Hadamard, bit 0 yields only phi and bit 1 only psi
        # Bell outcomes, each tied to one announcement: 4 of 8 pairs
        encoding_rules((Gate.IDENTITY,), (Gate.PAULI_X,))
        with pytest.raises(ValueError, match="covers 4 of 8"):
            decode(P2, PHI_P, PLUS)


class TestHonestRounds:
    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_sampled_rounds_decode_correctly(self, protocol, variant):
        generator = rng(11)
        for bit in (0, 1):
            for _ in range(100):
                t = run_round(protocol, variant, bit, TrentStrategy.honest(), generator)
                assert t.decoded_bit == bit
                assert t.adversary_guess is None

    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_statevector_path_decodes_correctly(self, protocol, variant):
        generator = rng(12)
        for bit in (0, 1):
            for _ in range(50):
                t = run_round_statevector(
                    protocol, variant, bit, TrentStrategy.honest(), generator
                )
                assert t.decoded_bit == bit

    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_exact_correctness_probability_is_one(self, protocol, variant):
        for bit in (0, 1):
            _, branches = round_distribution(
                protocol, variant, bit, TrentStrategy.honest()
            )
            correct = sum(b.probability for b in branches if b.transcript.decoded_bit == bit)
            assert correct == pytest.approx(1.0, abs=1e-9)


class TestRoundDistribution:
    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_honest_matches_oracle(self, protocol, variant):
        for bit in (0, 1):
            _, branches = round_distribution(
                protocol, variant, bit, TrentStrategy.honest()
            )
            got = {}
            for b in branches:
                key = (b.transcript.trent_announcement, b.transcript.bob_measurement)
                got[key] = got.get(key, 0.0) + b.probability
            expected = {}
            for ann, meas, _, p in oracle.honest_round(protocol.value, variant.value, bit):
                if protocol is P1:
                    key = (_ORACLE_X[ann], BellOutcome(meas))
                else:
                    key = (BellOutcome(ann), _ORACLE_X[meas])
                expected[key] = expected.get(key, 0.0) + p
            assert set(got) == set(expected)
            for key in got:
                assert got[key] == pytest.approx(expected[key], abs=1e-9)

    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_attacked_matches_oracle(self, protocol, variant):
        for bit in (0, 1):
            _, branches = round_distribution(
                protocol, variant, bit, TrentStrategy.attack()
            )
            got = {}
            for b in branches:
                t = b.transcript
                key = (t.adversary_raw, t.adversary_guess, t.trent_announcement, t.bob_measurement)
                got[key] = got.get(key, 0.0) + b.probability
            expected = {}
            for za, zt, guess, ann, meas, _, p in oracle.attacked_round(
                protocol.value, variant.value, bit
            ):
                if protocol is P1:
                    key = (
                        (_ORACLE_Z[za], _ORACLE_Z[zt]),
                        guess,
                        _ORACLE_X[ann],
                        BellOutcome(meas),
                    )
                else:
                    key = (
                        (_ORACLE_Z[za], _ORACLE_Z[zt]),
                        guess,
                        BellOutcome(ann),
                        _ORACLE_X[meas],
                    )
                expected[key] = expected.get(key, 0.0) + p
            assert set(got) == set(expected)
            for key in got:
                assert got[key] == pytest.approx(expected[key], abs=1e-9)


def test_chi2_critical_matches_tables():
    # standard table values: 95th percentile for 1, 3 and 100 degrees of
    # freedom, 99.9th for 15
    assert chi2_critical(1, 0.05) == pytest.approx(3.841, abs=1e-3)
    assert chi2_critical(3, 0.05) == pytest.approx(7.815, abs=1e-3)
    assert chi2_critical(100, 0.05) == pytest.approx(124.342, abs=1e-3)
    assert chi2_critical(15, 0.001) == pytest.approx(37.697, abs=1e-3)


TRENTS = {
    "honest": TrentStrategy.honest(),
    "attack": TrentStrategy.attack(),
    "genuine": TrentStrategy.attack(AnnouncementPolicy.GENUINE_MEASUREMENT),
    "uniform": TrentStrategy.attack(AnnouncementPolicy.UNIFORM_RANDOM),
}
SAMPLER_CONFIGS = [
    (p, v, bit, name) for p in ProtocolId for v in EncodingVariant for bit in (0, 1) for name in TRENTS
]
SAMPLERS = {"run_round": run_round, "run_round_statevector": run_round_statevector}
# False-alarm probability of each chi-square check.  There are 66: one per
# configuration and sampler, and one pooled over all configurations per
# sampler.  A correct sampler thus fails this suite on an arbitrary seed
# with probability at most 66e-6.
FALSE_ALARM = 1e-6
DRAWS = 480  # every branch has probability >= 1/16: >= 30 expected counts


@functools.cache
def chi2_statistic(config_index: int, sampler: str) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom of DRAWS fixed-seed rounds
    of one sampler against the branch probabilities of
    `round_distribution`.  Asserts that every sampled round is the
    transcript of a branch."""
    protocol, variant, bit, trent_name = SAMPLER_CONFIGS[config_index]
    trent = TRENTS[trent_name]
    _, branches = round_distribution(protocol, variant, bit, trent)
    counts = np.zeros(len(branches))
    generator = rng(config_index)
    for _ in range(DRAWS):
        counts[message_branch(branches, SAMPLERS[sampler](protocol, variant, bit, trent, generator))] += 1
    expected = DRAWS * np.array([b.probability for b in branches])
    return float(np.sum((counts - expected) ** 2 / expected)), len(branches) - 1


@pytest.mark.parametrize(
    "config_index",
    range(len(SAMPLER_CONFIGS)),
    ids=[f"p{p.value}-{v.value}-bit{bit}-{name}" for p, v, bit, name in SAMPLER_CONFIGS],
)
def test_samplers_fit_the_exact_distribution(config_index):
    """Pearson chi-square test of `run_round` and `run_round_statevector`
    against the exact branch table, at FALSE_ALARM per sampler."""
    for sampler in SAMPLERS:
        statistic, df = chi2_statistic(config_index, sampler)
        assert statistic < chi2_critical(df, FALSE_ALARM), (sampler, statistic, df)


@pytest.mark.parametrize("sampler", list(SAMPLERS))
def test_sampler_fits_pooled_over_all_configurations(sampler):
    """The per-configuration statistics summed over all 32 configurations:
    a small bias shared by every configuration, too small to flag in any
    one of them, adds up here."""
    results = [chi2_statistic(i, sampler) for i in range(len(SAMPLER_CONFIGS))]
    statistic = sum(x for x, _ in results)
    df = sum(d for _, d in results)
    assert statistic < chi2_critical(df, FALSE_ALARM), (statistic, df)


def replay_round(protocol, variant, bit, trent, generator, is_check_bit):
    """One round run step by step over `schedule(...)` with the qsim
    primitives, drawing from `generator` in time order."""
    state = encode_bit(variant, bit, make_ghz())
    measure = {"z": qsim.measure_z, "x": qsim.measure_x, "bell": qsim.measure_bell}
    outcomes = {}
    for step in schedule(protocol, trent):
        if step[0] == "gate":
            state = qsim.apply_gate(state, step[1], step[2])
        elif step[0] == "measure":
            _, role, basis, qubits = step
            outcomes[role], state = measure[basis](state, *qubits, generator)
        else:
            # symbol k on a uniform in [k/n, (k+1)/n); 1.0, which no
            # generator makes, takes the last, as the walk's pad does
            _, role, alphabet = step
            outcomes[role] = alphabet[min(int(generator.random() * len(alphabet)), len(alphabet) - 1)]
    record = adversary.attack_record(outcomes)
    return RoundTranscript(
        protocol=protocol,
        variant=variant,
        sent_bit=bit,
        is_check_bit=is_check_bit,
        trent_announcement=outcomes["trent"],
        bob_measurement=outcomes["bob"],
        decoded_bit=decode(protocol, outcomes["trent"], outcomes["bob"]),
        adversary_guess=None if record is None else record.guessed_bit,
        adversary_raw=None if record is None else (record.z_outcome_a, record.z_outcome_t),
    )


class _Zeros:
    """Stands in for a generator whose every draw is 0: each measurement
    or random step takes its first possible outcome."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class _Recording:
    """Stands in for a generator: forwards every call to a seeded one and
    records it as (method name, arguments)."""

    def __init__(self, seed):
        self.generator, self.calls = rng(seed), []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return getattr(self.generator, name)(*args, **kwargs)

        return record


def message_branch(branches, t: RoundTranscript) -> int:
    """The index of the one branch whose transcript is the message round `t`."""
    [index] = [i for i, b in enumerate(branches) if b.transcript is t]
    return index


def unflipped_branch(branches, t: RoundTranscript) -> int:
    """The index of the branch of `t`, a message or check round with the
    decoded bit as measured: the branch whose transcript equals `t` as a
    message round."""
    message = dataclasses.replace(t, is_check_bit=False)
    [index] = [i for i, b in enumerate(branches) if b.transcript == message]
    return index


class TestRoundTree:
    def test_statevector_rounds_match_a_step_by_step_replay(self):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            for seed in range(20):
                walked, replayed = rng(seed), rng(seed)
                for is_check_bit in (False, True):
                    t = run_round_statevector(protocol, variant, bit, TRENTS[name], walked, is_check_bit)
                    assert t == replay_round(protocol, variant, bit, TRENTS[name], replayed, is_check_bit)
                assert walked.random() == replayed.random()

    def test_warm_rounds_run_no_gate_and_no_projection(self, monkeypatch):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            run_round_statevector(protocol, variant, bit, TRENTS[name], rng(0))

        def physics(*args, **kwargs):
            raise AssertionError("state-vector physics after warm-up")

        monkeypatch.setattr(qsim, "_project", physics)
        monkeypatch.setattr(qsim, "apply_gate", physics)
        generator = rng(1)
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            for _ in range(20):
                run_round_statevector(protocol, variant, bit, TRENTS[name], generator)
            run_round_statevector(protocol, variant, bit, TRENTS[name], _Zeros())

    def test_walk_takes_the_branch_and_draws_of_a_step_by_step_replay(self):
        # the model's walk table against `replay_round` stepping the round's
        # schedule with the primitives, its branch found by its transcript
        # (one branch each): same shared transcript, same draws, on seeded
        # streams, all-zero draws and draws just below 1.  A draw of 1.0,
        # which no generator makes, reaches the padding past each
        # measurement's last possible outcome.
        below_one = float(np.nextafter(1.0, 0.0))
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            trent = TRENTS[name]
            model = protocol_module._model(protocol, variant, trent)
            streams = [(rng(seed), rng(seed)) for seed in range(8)]
            streams += [(_Uniforms([u] * 9), _Uniforms([u] * 9)) for u in (0.0, below_one, 1.0)]
            for walking, replaying in streams:
                for check in (False, True):
                    replayed = replay_round(protocol, variant, bit, trent, replaying, check)
                    branch = unflipped_branch(model.branches[bit], replayed)
                    expected = model.transcripts[model.offset[bit] + 4 * branch + 2 * check]
                    assert run_round_statevector(protocol, variant, bit, trent, walking, check) is expected
                if isinstance(walking, _Uniforms):
                    assert len(walking.values) == len(replaying.values)
                else:
                    assert walking.random() == replaying.random()

    def test_warm_rounds_neither_sample_the_schedule_nor_pick(self, monkeypatch):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            run_round_statevector(protocol, variant, bit, TRENTS[name], rng(0))

        def refuse(*args, **kwargs):
            raise AssertionError("a warm round stepped the schedule")

        monkeypatch.setattr(qsim, "sample_schedule", refuse)
        monkeypatch.setattr(qsim, "_born", refuse)
        monkeypatch.setattr(qsim, "_project", refuse)
        generator = rng(1)
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            for check in (False, True):
                for _ in range(10):
                    run_round_statevector(protocol, variant, bit, TRENTS[name], generator, check)

    def test_a_round_draws_its_depth_in_one_call(self):
        # one uniform per measurement or random step, all in one
        # `random(depth)` call: 2 for an honest round, 4 for an attacked one
        for protocol, variant in ALL_COMBOS:
            for name, trent in TRENTS.items():
                depth = qsim.schedule_depth(schedule(protocol, trent))
                assert depth == (2 if name == "honest" else 4)
                for bit in (0, 1):
                    recording = _Recording(bit)
                    run_round_statevector(protocol, variant, bit, trent, recording)
                    assert recording.calls == [("random", (depth,), {})], (protocol, variant, name)
                    generator, advanced = rng(bit), rng(bit)
                    run_round_statevector(protocol, variant, bit, trent, generator)
                    advanced.random(depth)
                    assert generator.bit_generator.state == advanced.bit_generator.state

    def test_samplers_draw_through_the_walk_or_the_lookup_table(self, monkeypatch):
        # two rules turn draws into an outcome or a branch: qsim.walk, once per
        # measurement or state-vector round, and the model's lookup table,
        # read by run_round and run_session and by nothing else
        assert not hasattr(qsim, "_Born")
        state, trent = make_ghz(), TRENTS["attack"]
        plan = SessionPlan.build([0, 1] * 10, 0.5, rng(0))
        samplers = {
            "measure_z": lambda generator: qsim.measure_z(state, 0, generator),
            "measure_x": lambda generator: qsim.measure_x(state, 1, generator),
            "measure_bell": lambda generator: qsim.measure_bell(state, 0, 2, generator),
            "run_round_statevector": lambda generator: run_round_statevector(P2, REVISED, 0, trent, generator),
            "run_round": lambda generator: [run_round(P1, ORIGINAL, 1, trent, generator)],
            "run_session": lambda generator: run_session(P1, ORIGINAL, plan, trent, generator)[0],
        }
        for sample in samplers.values():
            sample(rng(0))  # builds the models before counting
        calls = []
        walk = qsim.walk
        monkeypatch.setattr(qsim, "walk", lambda table, draws: calls.append(table) or walk(table, draws))
        for name, sample in samplers.items():
            calls.clear()
            sample(rng(1))
            assert len(calls) == (name not in ("run_round", "run_session")), name
        # a lookup table that sends every bucket to bit 0's last transcript
        model = protocol_module._model(P1, ORIGINAL, trent)
        last = model.offset[1] - 4
        rigged = model._replace(lookup=np.full(model.lookup.size, last))
        monkeypatch.setattr(protocol_module, "_model", lambda *config: rigged)
        for name in ("run_round", "run_session"):
            got = samplers[name](rng(1))
            assert {id(t) for t in got if not t.is_check_bit} == {id(model.transcripts[last])}, name

    def test_each_configuration_is_enumerated_once(self, monkeypatch):
        # the decode map, the table and both samplers read one enumeration
        calls = []
        schedule_branches = qsim.schedule_branches
        monkeypatch.setattr(qsim, "schedule_branches", lambda *args: calls.append(args) or schedule_branches(*args))
        for cache in (protocol_module._round_branches, protocol_module._decode_map, protocol_module._model):
            cache.cache_clear()
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            round_distribution(protocol, variant, bit, TRENTS[name])
            run_round(protocol, variant, bit, TRENTS[name], rng(0))
            run_round_statevector(protocol, variant, bit, TRENTS[name], rng(0))
        # one enumeration per (configuration, bit): sessions and runs add none
        plan = SessionPlan.build([0, 1] * 10, 0.5, rng(0))
        for protocol, variant, _, name in SAMPLER_CONFIGS:
            run_session(protocol, variant, plan, TRENTS[name], rng(0))
            run_experiment(RunConfig(protocol=protocol, variant=variant, trent=TRENTS[name], message_length=20))
        assert len(calls) == len(SAMPLER_CONFIGS)

    def test_an_all_zero_draw_lands_on_a_table_row(self):
        # 64 conditional probabilities of the 32 round trees are about
        # 1e-33, rounding residue of exact zeros.  They are impossible
        # outcomes, so even a walk that takes each measurement's first
        # outcome lands on a row of the exact table, and an honest round
        # decodes the sent bit.
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            t = run_round_statevector(protocol, variant, bit, TRENTS[name], _Zeros())
            assert t == replay_round(protocol, variant, bit, TRENTS[name], _Zeros(), False)
            # raises unless t is a branch's transcript
            message_branch(round_distribution(protocol, variant, bit, TRENTS[name])[1], t)
            if name == "honest":
                assert t.decoded_bit == bit

    def test_samplers_return_one_shared_transcript_per_branch_and_check_flag(self):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            trent = TRENTS[name]
            cumulative, branches = round_distribution(protocol, variant, bit, trent)
            generator = rng(7)

            def table_round(index, check):
                # run_round on a uniform in the middle of the branch's interval
                u = cumulative[index] - branches[index].probability / 2
                return run_round(protocol, variant, bit, trent, _Uniforms([u]), check)

            for check in (False, True):
                for index, branch in enumerate(branches):
                    t = table_round(index, check)
                    assert table_round(index, check) is t
                    assert t == dataclasses.replace(branch.transcript, is_check_bit=check)
                    if not check:
                        assert t is branch.transcript
                for _ in range(40):
                    t = run_round_statevector(protocol, variant, bit, trent, generator, check)
                    assert table_round(unflipped_branch(branches, t), check) is t

    def test_each_branch_holds_its_message_transcript(self):
        assert [field.name for field in dataclasses.fields(RoundBranch)] == ["probability", "transcript"]
        for protocol, variant in ALL_COMBOS:
            for trent in TRENTS.values():
                model = protocol_module._model(protocol, variant, trent)
                for bit in (0, 1):
                    for i, branch in enumerate(round_distribution(protocol, variant, bit, trent)[1]):
                        assert branch.transcript is model.transcripts[model.offset[bit] + 4 * i]


class TestCorrespondenceTables:
    def test_protocol1_revised_matches_published_rows(self):
        rows = emit_tables()[P1, REVISED]
        mapping = {(ann, meas): bit for ann, meas, bit, _ in rows}
        assert mapping == {
            (PLUS, PHI_P): 1,
            (PLUS, PSI_M): 1,
            (PLUS, PHI_M): 0,
            (PLUS, PSI_P): 0,
            (MINUS, PHI_P): 0,
            (MINUS, PSI_M): 0,
            (MINUS, PHI_M): 1,
            (MINUS, PSI_P): 1,
        }

    def test_protocol2_revised_matches_published_rows(self):
        rows = emit_tables()[P2, REVISED]
        mapping = {(ann, meas): bit for ann, meas, bit, _ in rows}
        assert mapping == {
            (PHI_P, PLUS): 1,
            (PSI_M, PLUS): 1,
            (PHI_P, MINUS): 0,
            (PSI_M, MINUS): 0,
            (PHI_M, PLUS): 0,
            (PSI_P, PLUS): 0,
            (PHI_M, MINUS): 1,
            (PSI_P, MINUS): 1,
        }

    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_uniform_outcome_marginals(self, protocol, variant):
        rows = emit_tables()[protocol, variant]
        assert len(rows) == 8  # 4 reachable pairs per bit
        for _, _, _, prob in rows:
            # 1/4 given the bit, i.e. 1/8 jointly with a uniform message bit
            assert prob == pytest.approx(0.25, abs=1e-9)
        # each announcement outcome is uniform over its alphabet per bit
        for bit in (0, 1):
            ann_marginal = {}
            for ann, _, b, prob in rows:
                if b == bit:
                    ann_marginal[ann] = ann_marginal.get(ann, 0.0) + prob
            for p in ann_marginal.values():
                assert p == pytest.approx(1.0 / len(ann_marginal), abs=1e-9)

    def test_probabilities_are_python_floats(self):
        # a numpy scalar would print as np.float64(...) in the tables' repr
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            for branch in round_distribution(protocol, variant, bit, TRENTS[name])[1]:
                assert type(branch.probability) is float
        for rows in emit_tables().values():
            assert all(type(probability) is float for _, _, _, probability in rows)

    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_original_matches_oracle_decode(self, protocol):
        rows = emit_tables()[protocol, ORIGINAL]
        for ann, meas, bit, _ in rows:
            assert decode(protocol, ann, meas) == bit


class TestSessionPlan:
    def test_build_counts(self):
        plan = SessionPlan.build([0, 1] * 50, 0.5, rng())
        assert plan.bits.shape == plan.is_check.shape == (200,)
        assert np.count_nonzero(plan.is_check) == 100

    def test_uneven_fraction(self):
        plan = SessionPlan.build([1] * 90, 0.1, rng())
        assert np.count_nonzero(plan.is_check) == 10
        assert plan.bits.size == 100

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError, match="message bit"):
            SessionPlan.build([], 0.5, rng())

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="check_fraction"):
            SessionPlan.build([0, 1], 1.5, rng())

    @pytest.mark.parametrize("value", ["0.5", None, True], ids=repr)
    def test_fraction_must_be_a_real_number(self, value):
        # "0.5" and None used to raise a TypeError from a comparison
        with pytest.raises(ValueError, match="^check_fraction must be a real number"):
            SessionPlan.build([0, 1], value, rng())

    def test_session_round_cap(self):
        cap = protocol_module.MAX_SESSION_ROUNDS
        assert protocol_module.check_round_count(cap - 1, 1e-9) == 1
        with pytest.raises(ValueError, match=f"plans {cap + 1} rounds"):
            protocol_module.check_round_count(cap, 1e-9)
        # rejected before any array is sized by the count
        with pytest.raises(ValueError, match="message_length 1000 plans 1000000000 rounds"):
            SessionPlan.build([0, 1] * 500, 0.999999, rng())

    @pytest.mark.parametrize(
        "message,accepted",
        [
            ([0.5, 1.7], False),
            ([2, 1], False),
            ([0, -1], False),
            (np.array([256, 1]), False),  # would wrap to 0 in int8
            (np.array([255, 1], dtype=np.uint8), False),
            ([[1, 0], [0, 1]], False),
            (["1", "0"], False),
            (np.array([True, False]), True),
            (np.array([1, 0], dtype=np.uint8), True),
        ],
    )
    def test_message_bits_must_be_zero_or_one(self, message, accepted):
        if accepted:
            plan = SessionPlan.build(message, 0.5, rng())
            assert plan.bits[~plan.is_check].tolist() == [1, 0]
        else:
            with pytest.raises(ValueError, match="message bits must be"):
                SessionPlan.build(message, 0.5, rng())

    def test_fixed_seed_plan_is_pinned(self):
        # `run_session` transcripts and the harness depend on this stream
        plan = SessionPlan.build(np.array([1, 0, 1, 1, 0, 1]), 0.5, rng(1))
        assert plan.bits.tolist() == [1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0], pins.versions()
        assert np.flatnonzero(plan.is_check).tolist() == [2, 3, 5, 7, 9, 11], pins.versions()
        assert plan.bits.dtype == np.int8 and plan.is_check.dtype == bool
        assert not plan.bits.flags.writeable and not plan.is_check.flags.writeable

    def test_check_bits_use_given_stream_only(self):
        a = SessionPlan.build([0] * 40, 0.5, rng(5))
        b = SessionPlan.build([1] * 40, 0.5, rng(5))
        # same stream, different messages: identical check bits and positions
        assert np.array_equal(a.is_check, b.is_check)
        assert np.array_equal(a.bits[a.is_check], b.bits[b.is_check])


class TestRunSession:
    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_honest_session_is_error_free(self, protocol, variant):
        generator = rng(31)
        message = [int(b) for b in generator.integers(0, 2, size=60)]
        plan = SessionPlan.build(message, 0.5, generator)
        transcripts, error_rate, abort = run_session(
            protocol, variant, plan, TrentStrategy.honest(), generator
        )
        assert error_rate == 0.0
        assert not abort
        assert extract_message(transcripts, abort) == message

    @pytest.mark.parametrize(
        "bits,is_check",
        [
            ([], []),
            ([0, 1, 1], [True]),
            ([0, 1, 1], [False, False, False]),
            ([0, 2, 1], [True, False, False]),
            ([0, -1, 1], [True, False, False]),
        ],
    )
    def test_malformed_plan_rejected(self, bits, is_check):
        plan = SessionPlan(bits=np.array(bits, dtype=np.int8), is_check=np.array(is_check, dtype=bool))
        with pytest.raises(ValueError, match="plan"):
            run_session(P1, REVISED, plan, TrentStrategy.honest(), rng())

    @pytest.mark.parametrize(
        "bits,is_check",
        [
            # integer flags made round 0 return another branch's message transcript
            (np.zeros(8, np.int8), np.array([2, 0, 0, 0, 0, 0, 0, 1])),
            (np.zeros(8, np.int8), np.array([1, 0, 0, 0, 0, 0, 0, 1])),
            ([0, 1, 1], [True, False, False]),
            (np.zeros(3, np.int8), [True, False, False]),
            (np.zeros((1, 3), np.int8), np.array([[True, False, False]])),
            # the lookup table is indexed with the bits: without the dtype check
            # these raised a UFuncTypeError from numpy
            (np.zeros(3), np.array([True, False, False])),
            (np.zeros(3, object), np.array([True, False, False])),
        ],
        ids=["int-flags-2", "int-flags-1", "lists", "list-flags", "2-D", "float-bits", "object-bits"],
    )
    def test_plan_fields_must_be_1d_arrays_with_bool_flags(self, bits, is_check):
        plan = SessionPlan(bits=bits, is_check=is_check)
        with pytest.raises(ValueError, match="plan"):
            run_session(P1, REVISED, plan, TrentStrategy.honest(), rng())

    @pytest.mark.parametrize("name", ["noise_probability", "abort_threshold"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), "0.5", None, True])
    def test_rates_outside_the_unit_interval_rejected(self, name, value):
        # a NaN threshold would pass every session, a NaN noise mean none; a
        # noise rate of True flipped every decoded bit, and "0.5" or None
        # raised a TypeError from a comparison
        plan = SessionPlan.build([0, 1] * 20, 0.5, rng())
        with pytest.raises(ValueError, match=name):
            run_session(P1, ORIGINAL, plan, TrentStrategy.attack(), rng(), **{name: value})

    def test_warm_session_only_indexes_the_cached_transcripts(self, monkeypatch):
        plan = SessionPlan.build(rng(42).integers(0, 2, 300), 0.5, rng(43))
        trent = TrentStrategy.attack()
        run_session(P1, ORIGINAL, plan, trent, rng(44), noise_probability=0.3)

        def refuse(self):
            raise AssertionError("run_session built a RoundTranscript")

        monkeypatch.setattr(RoundTranscript, "__post_init__", refuse)
        transcripts = [
            t for seed in (45, 46)
            for t in run_session(P1, ORIGINAL, plan, trent, rng(seed), noise_probability=0.3)[0]
        ]
        assert any(t.decoded_bit != t.sent_bit for t in transcripts)
        # across both sessions, equal transcripts are one object
        assert len({id(t) for t in transcripts}) == len(set(transcripts))

    @pytest.mark.parametrize("threshold", [0.02, np.float64(0.02)], ids=["float", "float64"])
    def test_session_returns_a_float_rate_and_a_bool_abort(self, threshold):
        plan = SessionPlan.build(rng(47).integers(0, 2, 100), 0.5, rng(48))
        for trent in (TrentStrategy.honest(), TrentStrategy.attack()):
            _, error_rate, abort = run_session(P1, ORIGINAL, plan, trent, rng(49), abort_threshold=threshold)
            assert type(error_rate) is float and type(abort) is bool

    @pytest.mark.parametrize("value", [Fraction(1, 10), np.float32(0.1)], ids=["Fraction", "float32"])
    def test_rates_act_as_the_float_check_rate_returns(self, value):
        # a Fraction noise rate was compared with every round's uniform as a
        # Python object: 4.4 ms against 1 us for 2000 rounds
        plan = SessionPlan.build(rng(50).integers(0, 2, 300), 0.5, rng(51))
        for trent in (TrentStrategy.honest(), TrentStrategy.attack()):
            got = run_session(P1, ORIGINAL, plan, trent, rng(52), value, value)
            assert got == run_session(P1, ORIGINAL, plan, trent, rng(52), float(value), float(value))
            assert type(got[1]) is float and type(got[2]) is bool

    def test_message_withheld_on_abort(self):
        assert extract_message([], True) is None

    def test_attacked_original_error_rate(self):
        # frozen oracle value: each attacked check round errs w.p. 0.5
        expected = oracle.attacked_error_probability(1, "original", 0)
        assert expected == pytest.approx(0.5, abs=1e-12)
        generator = rng(33)
        plan = SessionPlan.build([int(b) for b in generator.integers(0, 2, 2000)], 0.5, generator)
        _, error_rate, abort = run_session(
            P1, ORIGINAL, plan, TrentStrategy.attack(), generator
        )
        sigma = np.sqrt(0.25 / 2000)
        assert abs(error_rate - 0.5) < 3 * sigma
        assert abort

    def test_noise_knob_triggers_abort(self):
        generator = rng(34)
        plan = SessionPlan.build([0] * 200, 0.5, generator)
        _, error_rate, abort = run_session(
            P1,
            REVISED,
            plan,
            TrentStrategy.honest(),
            generator,
            noise_probability=0.3,
        )
        assert error_rate > 0.02
        assert abort

    @pytest.mark.parametrize(
        "trent,noise", [(TrentStrategy.honest(), 0.0), (TrentStrategy.attack(), 0.3)]
    )
    def test_round_interleaving_matches_plan(self, trent, noise):
        generator = rng(35)
        message = [1, 0, 1, 1, 0, 0, 1, 0]
        plan = SessionPlan.build(message, 0.5, generator)
        transcripts, _, _ = run_session(
            P1, REVISED, plan, trent, generator, noise_probability=noise
        )
        assert [t.sent_bit for t in transcripts] == plan.bits.tolist()
        assert [t.is_check_bit for t in transcripts] == plan.is_check.tolist()
        assert all(type(t.sent_bit) is int and type(t.is_check_bit) is bool for t in transcripts)
        sent_message = [t.sent_bit for t in transcripts if not t.is_check_bit]
        assert sent_message == message

    def test_full_noise_flips_every_decode(self):
        generator = rng(36)
        plan = SessionPlan.build(generator.integers(0, 2, 300), 0.5, generator)
        transcripts, error_rate, abort = run_session(
            P2, REVISED, plan, TrentStrategy.honest(), generator, noise_probability=1.0
        )
        assert error_rate == 1.0 and abort
        assert all(t.decoded_bit != t.sent_bit for t in transcripts)

    @pytest.mark.parametrize("noise,draws_per_round", [(0.0, 1), (0.1, 2)])
    def test_session_draws_n_uniforms_and_n_more_with_noise(self, noise, draws_per_round):
        plan = SessionPlan.build([0, 1, 1] * 40, 0.4, rng(37))
        generator, reference = rng(38), rng(38)
        run_session(P2, ORIGINAL, plan, TrentStrategy.attack(), generator, noise_probability=noise)
        reference.random(draws_per_round * plan.bits.size)
        assert generator.random() == reference.random()

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("trent", TRENTS.values(), ids=list(TRENTS))
    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_bulk_branch_choice_matches_run_round(self, protocol, variant, trent, noise):
        # run_session on given uniforms picks, round by round, the branch
        # run_round picks on the same uniform, edges of the table included,
        # then flips its decoded bit when the round's noise uniform is below
        # the rate; the bits interleave, so each round reads its own bit's table
        plan = SessionPlan.build(rng(39).integers(0, 2, 200), 0.5, rng(40))
        edges = [u for bit in (0, 1) for u in round_distribution(protocol, variant, bit, trent)[0]]
        edges += table_edges(edges)
        # each bit's last sum is exactly 1.0, past every uniform
        edges = [u for u in edges if u < 1.0]
        assert len(edges) + 2 < plan.bits.size
        uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, rng(41).random(plan.bits.size)])
        uniforms = uniforms[: plan.bits.size]
        # a noiseless session leaves the flip uniforms undrawn
        flips = rng(42).random(plan.bits.size)
        draws = _Uniforms(np.concatenate([uniforms, flips]))
        transcripts, _, _ = run_session(protocol, variant, plan, trent, draws, noise_probability=noise)
        expected = [
            run_round(protocol, variant, bit, trent, _Uniforms([u]), is_check_bit=check)
            for bit, check, u in zip(plan.bits.tolist(), plan.is_check.tolist(), uniforms.tolist())
        ]
        expected = [
            dataclasses.replace(t, decoded_bit=1 - t.decoded_bit) if flip < noise else t
            for t, flip in zip(expected, flips.tolist())
        ]
        assert transcripts == expected
        # rounds with equal transcripts share one object
        assert len({id(t) for t in transcripts}) == len(set(transcripts))

    @pytest.mark.parametrize("trent", TRENTS.values(), ids=list(TRENTS))
    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_lookup_takes_a_uniform_where_a_search_of_the_exact_sums_does(self, protocol, variant, trent):
        # the search the lookup table replaces, as the oracle, on both sides
        # of every running sum and bucket edge, with sums from exact fractions
        model = protocol_module._model(protocol, variant, trent)
        for bit in (0, 1):
            born = [p for p, _, _ in protocol_module._round_branches(protocol, variant, bit, trent)[0]]
            exact = list(itertools.accumulate(Fraction(p).limit_denominator(64) for p in born))
            sums = [float(u) for u in exact]
            assert exact[-1] == 1 and model.sums[bit] == tuple(sums)
            uniforms = np.array([0.0, np.nextafter(1.0, 0.0)] + sums + table_edges(sums))
            uniforms = uniforms[uniforms < 1.0]
            first = model.offset[bit] + 4 * np.searchsorted(sums, uniforms, side="right")
            is_check = np.arange(uniforms.size) % 2 == 1
            expected = model.transcripts[first + 2 * is_check].tolist()
            got = [run_round(protocol, variant, bit, trent, _Uniforms([u]), is_check_bit=check)
                   for u, check in zip(uniforms.tolist(), is_check.tolist())]
            assert all(map(operator.is_, got, expected)), bit
            plan = SessionPlan(bits=np.full(uniforms.size, bit, np.int8), is_check=is_check)
            got, _, _ = run_session(protocol, variant, plan, trent, _Uniforms(uniforms))
            assert all(map(operator.is_, got, expected)), bit

    @pytest.mark.parametrize(
        "probabilities,message",
        [((1 / 3, 1 / 3, 1 / 6, 1 / 6), "not a multiple of 1/64"), ((0.25, 0.25, 0.25, 0.125), "sum to 0.875")],
        ids=["a-third", "short-of-1"],
    )
    def test_model_rejects_inexact_branch_probabilities(self, monkeypatch, probabilities, message):
        # the lookup table is exact only for multiples of 1/64 that sum to 1
        honest = TRENTS["honest"]
        branches, table = protocol_module._round_branches(P1, ORIGINAL, 0, honest)
        assert len(branches) == len(probabilities)
        rigged = [(p, outcomes, state) for p, (_, outcomes, state) in zip(probabilities, branches)]
        monkeypatch.setattr(protocol_module, "_round_branches", lambda *args: (rigged, table))
        with pytest.raises(AssertionError, match=message):
            protocol_module._model.__wrapped__(P1, ORIGINAL, honest)

    def test_rejected_configuration_leaves_the_generator_untouched(self):
        plan = SessionPlan.build([0, 1] * 20, 0.5, rng())
        calls = [(3, REVISED, TrentStrategy.honest()), (P1, "revised", TrentStrategy.honest()),
                 (P1, REVISED, "honest"), ([1], REVISED, TrentStrategy.honest())]
        for protocol, variant, trent in calls:
            generator = rng(53)
            with pytest.raises(ValueError):
                run_session(protocol, variant, plan, trent, generator)
            assert generator.random() == rng(53).random()

    def test_model_arrays_are_read_only(self):
        # a write into a cached array would change every later session and
        # report of that configuration in the process
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
                if value.dtype == object:
                    for item in value.flat:
                        yield from arrays(item)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)
            elif dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    yield from arrays(getattr(value, field.name))

        for protocol, variant in ALL_COMBOS:
            for name, trent in TRENTS.items():
                found = list(arrays(protocol_module._model(protocol, variant, trent)))
                # transcripts, check_error, lookup, four class and one cell array at least
                assert len(found) >= 8
                assert not any(a.flags.writeable for a in found), (protocol, variant, name)


def table_edges(sums) -> list[float]:
    """Uniforms beside the edges of the lookup table over `sums`, in
    [0, 1): the float on either side of every sum, and every bucket edge
    j/K with the float just below it."""
    k = protocol_module.BUCKETS
    beside = [float(np.nextafter(u, toward)) for u in sums for toward in (0.0, 1.0)]
    edges = [u for j in range(k) for u in (j / k, float(np.nextafter(j / k, 0.0)))]
    return [u for u in beside + edges if 0.0 <= u < 1.0]


class _Uniforms:
    """Stands in for a generator: `random()` and `random(n)` hand out the
    given uniforms in order, and raise IndexError when too few are left."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        if size > len(self.values):
            raise IndexError(f"{size} draws asked, {len(self.values)} left")
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)


def walked_shares(walk, denominator: int, depth: int) -> dict:
    """The share of the `depth`-tuples of draws that take `walk` to each
    leaf, when every draw is one of the midpoints (k + 1/2)/denominator:
    `walk(draws)` is called once on each tuple, which weighs
    denominator^-depth."""
    midpoints = [(k + 0.5) / denominator for k in range(denominator)]
    shares = Counter(walk(draws) for draws in itertools.product(midpoints, repeat=depth))
    return {leaf: Fraction(count, denominator**depth) for leaf, count in shares.items()}


def snapped_probabilities(probabilities, denominator: int = 64) -> dict[int, Fraction]:
    """Each probability, by index, as the multiple of 1/denominator it is
    up to rounding."""
    exact = {i: Fraction(round(p * denominator), denominator) for i, p in enumerate(probabilities)}
    assert all(abs(p - exact[i]) < 1e-12 for i, p in enumerate(probabilities))
    return exact


CLIFFORD_GATES = {Gate.HADAMARD: oracle.H, Gate.PAULI_X: oracle.X, Gate.PAULI_Z: oracle.Z}


@st.composite
def clifford_schedules(draw):
    """A start state, None for `make_ghz()` or the index of a 3-qubit
    basis state, and a schedule of H, X and Z gates and one to four draw
    steps: Z, X and Bell measurements and random steps of 2 or 4 symbols,
    in random order and on random qubits.  Every Born probability of such
    a schedule is a multiple of 1/4, and so is every random step's."""
    qubit = st.integers(0, 2)
    pair = st.permutations(range(3)).map(lambda order: tuple(order[:2]))
    draw_step = st.one_of(
        st.tuples(st.sampled_from(["z", "x"]), qubit.map(lambda q: (q,))),
        st.tuples(st.just("bell"), pair),
        st.sampled_from([2, 4]).map(lambda n: ("random", tuple(range(n)))),
    )
    gate = st.tuples(st.just("gate"), st.sampled_from(list(CLIFFORD_GATES)), qubit)
    # up to three gates before each draw step: a gate after the last one
    # would change no probability
    steps = []
    for i, (gates, step) in enumerate(draw(st.lists(st.tuples(st.lists(gate, max_size=3), draw_step),
                                                     min_size=1, max_size=4))):
        role = f"r{i}"
        steps += gates
        steps.append(("random", role, step[1]) if step[0] == "random" else ("measure", role, *step))
    return draw(st.one_of(st.none(), st.integers(0, 7))), tuple(steps)


def oracle_family(step):
    """The oracle's operator family of one schedule step."""
    if step[0] == "gate":
        return oracle.gate_family(CLIFFORD_GATES[step[1]], step[2])
    if step[0] == "random":
        return oracle.random_family(step[2])
    _, _, basis, qubits = step
    if basis == "bell":
        return oracle.bell_family(qubits)
    return {"z": oracle.z_family, "x": oracle.x_family}[basis](qubits[0])


def oracle_outcome(step, outcomes):
    """A branch's outcome of one schedule step, as the oracle names it."""
    if step[0] == "gate":
        return "gate"
    symbol = outcomes[step[1]]
    return symbol if step[0] == "random" else str(symbol.value)


class TestExactDraws:
    """How each sampler maps draws to branches, checked with no tolerance.
    Every conditional probability in the rounds' walk tables is a multiple
    of 1/4 and every branch probability one of 1/64, so the midpoint draws
    (k + 1/2)/8 at each step, or (k + 1/2)/64 for a one-level table, take
    each branch exactly its probability's share of the time, and none
    lies near an interval's edge.  The chi-square tests still check how
    the samplers use the generator's stream."""

    def test_walk_tables_take_each_branch_for_its_share(self):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            model = protocol_module._model(protocol, variant, TRENTS[name])
            table, depth = model.walks[bit]
            shares = walked_shares(functools.partial(qsim.walk, table), 8, depth)
            exact = snapped_probabilities([b.probability for b in model.branches[bit]])
            assert shares == exact, (protocol, variant, bit, name)

    def test_run_round_takes_each_branch_for_its_share(self):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            trent = TRENTS[name]
            _, branches = round_distribution(protocol, variant, bit, trent)

            def branch(draws):
                return message_branch(branches, run_round(protocol, variant, bit, trent, _Uniforms(draws)))

            exact = snapped_probabilities([b.probability for b in branches])
            assert walked_shares(branch, 64, 1) == exact, (protocol, variant, bit, name)

    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_run_session_takes_each_branch_for_its_share(self, protocol, variant):
        # 64 rounds of each bit, fed the 64 midpoints in order
        midpoints = [(k + 0.5) / 64 for k in range(64)]
        plan = SessionPlan(bits=np.repeat(np.int8([0, 1]), 64), is_check=np.arange(128) % 64 == 0)
        for name, trent in TRENTS.items():
            transcripts, _, _ = run_session(protocol, variant, plan, trent, _Uniforms(midpoints * 2))
            for bit in (0, 1):
                _, branches = round_distribution(protocol, variant, bit, trent)
                counts = Counter(unflipped_branch(branches, t) for t in transcripts[64 * bit : 64 * (bit + 1)])
                shares = {i: Fraction(count, 64) for i, count in counts.items()}
                assert shares == snapped_probabilities([b.probability for b in branches]), (name, bit)

    @given(clifford_schedules())
    @settings(max_examples=40, deadline=None)
    def test_random_clifford_schedules_take_each_branch_for_its_share(self, drawn):
        # `schedule_branches` beyond the protocol's schedules: at most four
        # draws of probability k/4 each, so every branch's is a multiple of 1/256
        start, steps = drawn
        state = make_ghz() if start is None else qsim.make_state(np.eye(8)[start])
        branches, table = qsim.schedule_branches(state, steps)
        exact = snapped_probabilities([p for p, _, _ in branches], 256)
        assert walked_shares(functools.partial(qsim.walk, table), 8, qsim.schedule_depth(steps)) == exact
        # the same branches and probabilities as the oracle's Born products
        psi = oracle.ghz() if start is None else np.eye(8, dtype=complex)[start]
        born = oracle.measure_chain(psi, [oracle_family(step) for step in steps])
        born_exact = snapped_probabilities([p for _, p in born], 256)
        names = [tuple(oracle_outcome(step, outcomes) for step in steps) for _, outcomes, _ in branches]
        assert dict(zip(names, exact.values())) == dict(zip([names for names, _ in born], born_exact.values()))


SESSION_FIT_CONFIGS = {
    "p2-revised-honest": (P2, REVISED, TrentStrategy.honest(), 0.05, 41),
    "p1-original-attack": (P1, ORIGINAL, TrentStrategy.attack(), 0.2, 42),
}
SESSION_BITS = 1000  # plus as many check rounds: >= 60 expected per branch


@functools.cache
def session_branches(name: str) -> tuple[list[tuple[RoundTranscript, int]], dict]:
    """The transcripts of one fixed-seed noisy `run_session`, each with
    the index of its branch in the sent bit's `round_distribution`, and
    those branch tables by bit."""
    protocol, variant, trent, noise, seed = SESSION_FIT_CONFIGS[name]
    generator = rng(seed)
    plan = SessionPlan.build(generator.integers(0, 2, SESSION_BITS), 0.5, generator)
    transcripts, _, _ = run_session(
        protocol, variant, plan, trent, generator, noise_probability=noise
    )
    tables = {bit: round_distribution(protocol, variant, bit, trent)[1] for bit in (0, 1)}
    index = {
        bit: {
            (b.transcript.trent_announcement, b.transcript.bob_measurement, b.transcript.adversary_raw): i
            for i, b in enumerate(branches)
        }
        for bit, branches in tables.items()
    }
    rows = []
    for t in transcripts:
        key = (t.trent_announcement, t.bob_measurement, t.adversary_raw)
        assert key in index[t.sent_bit], key
        rows.append((t, index[t.sent_bit][key]))
    return rows, tables


class TestSessionFit:
    """`run_session` against the exact branch table: a Pearson chi-square
    of the branch counts per sent bit, and an exact binomial test of the
    decodes that the noise knob flipped.  Both sessions are noisy, one
    attacked.  Each of the 2 x (2 + 1) checks has false-alarm probability
    FALSE_ALARM, so a correct `run_session` fails this class on an
    arbitrary seed with probability at most 6e-6.  No check is retried or
    re-seeded."""

    @pytest.mark.parametrize("bit", (0, 1))
    @pytest.mark.parametrize("name", list(SESSION_FIT_CONFIGS))
    def test_branches_fit_the_exact_distribution(self, name, bit):
        rows, tables = session_branches(name)
        branches = tables[bit]
        counts = np.bincount([i for t, i in rows if t.sent_bit == bit], minlength=len(branches))
        expected = counts.sum() * np.array([b.probability for b in branches])
        assert expected.min() >= 30
        statistic = float(np.sum((counts - expected) ** 2 / expected))
        assert statistic < chi2_critical(len(branches) - 1, FALSE_ALARM), statistic

    @pytest.mark.parametrize("name", list(SESSION_FIT_CONFIGS))
    def test_noise_flips_follow_their_binomial(self, name):
        rows, tables = session_branches(name)
        noise = SESSION_FIT_CONFIGS[name][3]
        flips = sum(t.decoded_bit != tables[t.sent_bit][i].transcript.decoded_bit for t, i in rows)
        lower, upper = binomial_tails(flips, len(rows), noise)
        assert min(lower, upper) > FALSE_ALARM / 2, (flips, len(rows) * noise)


ROUND_PIN_SEED = 9
ROUND_PIN_ROUNDS = 60  # per bit and check flag, in a fixed interleaving
ROUND_PIN_BITS = 200  # message bits of the pinned noisy session


def _pin_line(t: RoundTranscript) -> str:
    raw = None if t.adversary_raw is None else tuple(z.name for z in t.adversary_raw)
    return repr((t.protocol.value, t.variant.value, t.sent_bit, t.is_check_bit,
                 t.trent_announcement.name, t.bob_measurement.name, t.decoded_bit,
                 t.adversary_guess, raw))


def round_digests() -> dict[str, str]:
    """sha256 of seeded transcripts of every (protocol, variant, Trent)
    configuration, keyed protocol/variant/trent/sampler: of
    `run_round_statevector` and `run_round` over both bits and check
    flags, and of one `run_session` at noise 0.1 with its error rate and
    abort flag; each followed by the generator's next draw.

    tests/data/round_digests.json is this function's output, written
    once and never regenerated: a sampler may change its speed, not its
    transcripts or the draws it takes."""
    order = [(bit, check) for _ in range(ROUND_PIN_ROUNDS) for bit in (0, 1) for check in (False, True)]
    order = [order[i] for i in rng(0).permutation(len(order))]
    digests = {}
    for p in ProtocolId:
        for v in EncodingVariant:
            for name, trent in TRENTS.items():
                key = f"p{p.value}/{v.value}/{name}"
                for sampler in (run_round_statevector, run_round):
                    generator = rng(ROUND_PIN_SEED)
                    lines = [_pin_line(sampler(p, v, bit, trent, generator, check)) for bit, check in order]
                    lines.append(repr(generator.random()))
                    digests[f"{key}/{sampler.__name__}"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
                generator = rng(ROUND_PIN_SEED)
                plan = SessionPlan.build(generator.integers(0, 2, ROUND_PIN_BITS), 0.5, generator)
                transcripts, error_rate, abort = run_session(p, v, plan, trent, generator, noise_probability=0.1)
                lines = [_pin_line(t) for t in transcripts]
                lines += [repr(float(error_rate)), repr(bool(abort)), repr(generator.random())]
                digests[f"{key}/run_session"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests


def test_every_configuration_matches_its_pinned_round_digests():
    pinned = json.loads((Path(__file__).parent / "data" / "round_digests.json").read_text())
    assert len(pinned) == 2 * 2 * 4 * 3
    digests = round_digests()
    assert [key for key in pinned if digests[key] != pinned[key]] == [], pins.versions()
    assert digests == pinned, pins.versions()


class TestTranscriptValidation:
    def test_protocol_must_be_a_protocol_id(self):
        with pytest.raises(ValueError, match="^protocol must be a ProtocolId, got 3"):
            RoundTranscript(protocol=3, variant=REVISED, sent_bit=0, is_check_bit=False,
                            trent_announcement=PHI_P, bob_measurement=PLUS, decoded_bit=0)

    def test_announcement_type_enforced(self):
        with pytest.raises(ValueError, match="announce"):
            RoundTranscript(
                protocol=P1,
                variant=REVISED,
                sent_bit=0,
                is_check_bit=False,
                trent_announcement=PHI_P,  # wrong: protocol 1 announces X outcomes
                bob_measurement=PHI_P,
                decoded_bit=0,
            )

    def test_measurement_type_enforced(self):
        with pytest.raises(ValueError, match="Bob"):
            RoundTranscript(
                protocol=P2,
                variant=REVISED,
                sent_bit=0,
                is_check_bit=False,
                trent_announcement=PHI_P,
                bob_measurement=PHI_P,  # wrong: protocol 2 has Bob measure X
                decoded_bit=0,
            )
