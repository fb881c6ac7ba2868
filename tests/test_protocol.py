import functools

import numpy as np
import pytest

import oracle
from fit import binomial_tails, chi2_critical
from qsdc import adversary, qsim
from qsdc import protocol as protocol_module
from qsdc.adversary import AnnouncementPolicy, TrentStrategy
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
    honest_correspondence_table,
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
        for sampler in (run_round, run_round_statevector):
            with pytest.raises(ValueError, match="bit must be 0 or 1"):
                sampler(P1, REVISED, 2, TrentStrategy.honest(), rng())


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
        rows = honest_correspondence_table(P1, ORIGINAL)
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

    @pytest.fixture
    def encoding_rules(self, monkeypatch):
        """Install other encoding rules for both variants, clearing the
        decode-map, tree and round caches around the swap."""

        def clear():
            protocol_module._decode_map.cache_clear()
            protocol_module._walked_tree.cache_clear()
            protocol_module._round.cache_clear()

        def install(bit0, bit1):
            rules = {variant: {0: bit0, 1: bit1} for variant in EncodingVariant}
            monkeypatch.setattr(protocol_module, "ENCODING_RULES", rules)
            clear()

        yield install
        clear()

    def test_rejects_a_map_that_is_not_single_valued(self, encoding_rules):
        encoding_rules((Gate.HADAMARD,), (Gate.HADAMARD,))
        with pytest.raises(ValueError, match="not single-valued"):
            decode(P1, PLUS, PHI_P)

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
            correct = sum(b.probability for b in branches if b.decoded_bit == bit)
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
                got[(b.trent_announcement, b.bob_measurement)] = (
                    got.get((b.trent_announcement, b.bob_measurement), 0.0) + b.probability
                )
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
                key = (
                    b.adversary_raw,
                    b.adversary_guess,
                    b.trent_announcement,
                    b.bob_measurement,
                )
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
    `round_distribution`.  Asserts that every sampled outcome is a branch
    and carries that branch's decoded bit and guess."""
    protocol, variant, bit, trent_name = SAMPLER_CONFIGS[config_index]
    trent = TRENTS[trent_name]
    _, branches = round_distribution(protocol, variant, bit, trent)
    index = {
        (b.trent_announcement, b.bob_measurement, b.adversary_raw): i
        for i, b in enumerate(branches)
    }
    counts = np.zeros(len(branches))
    generator = rng(config_index)
    for _ in range(DRAWS):
        t = SAMPLERS[sampler](protocol, variant, bit, trent, generator)
        key = (t.trent_announcement, t.bob_measurement, t.adversary_raw)
        assert key in index, (sampler, key)
        branch = branches[index[key]]
        assert (t.decoded_bit, t.adversary_guess) == (branch.decoded_bit, branch.adversary_guess)
        counts[index[key]] += 1
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
            _, role, alphabet = step
            outcomes[role] = alphabet[generator.integers(len(alphabet))]
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
    takes its first possible outcome."""

    def random(self):
        return 0.0

    def integers(self, n):
        return 0


def branch_key(t: RoundTranscript | RoundBranch):
    """The fields a RoundTranscript shares with its RoundBranch."""
    return (t.trent_announcement, t.bob_measurement, t.decoded_bit, t.adversary_guess, t.adversary_raw)


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

    def test_each_configuration_is_flattened_once(self, monkeypatch):
        # the decode map, the table and both samplers read one flattening
        flattened = []
        tree_branches = qsim.tree_branches
        monkeypatch.setattr(qsim, "tree_branches", lambda tree: flattened.append(tree) or tree_branches(tree))
        for cache in (protocol_module._walked_tree, protocol_module._decode_map, protocol_module._round):
            cache.cache_clear()
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            round_distribution(protocol, variant, bit, TRENTS[name])
            run_round(protocol, variant, bit, TRENTS[name], rng(0))
            run_round_statevector(protocol, variant, bit, TRENTS[name], rng(0))
        assert len(flattened) == len({id(tree) for tree in flattened}) == len(SAMPLER_CONFIGS)

    def test_an_all_zero_draw_lands_on_a_table_row(self):
        # 64 conditional probabilities of the 32 round trees are about
        # 1e-33, rounding residue of exact zeros.  They are impossible
        # outcomes, so even a walk that takes each measurement's first
        # outcome lands on a row of the exact table, and an honest round
        # decodes the sent bit.
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            t = run_round_statevector(protocol, variant, bit, TRENTS[name], _Zeros())
            assert t == replay_round(protocol, variant, bit, TRENTS[name], _Zeros(), False)
            _, branches = round_distribution(protocol, variant, bit, TRENTS[name])
            assert branch_key(t) in {branch_key(b) for b in branches}
            if name == "honest":
                assert t.decoded_bit == bit

    def test_samplers_return_one_shared_transcript_per_branch_and_check_flag(self):
        for protocol, variant, bit, name in SAMPLER_CONFIGS:
            trent = TRENTS[name]
            cumulative, branches = round_distribution(protocol, variant, bit, trent)
            keys = [branch_key(b) for b in branches]
            generator = rng(7)

            def table_round(index, check):
                # run_round on a uniform in the middle of the branch's interval
                u = cumulative[index] - branches[index].probability / 2
                return run_round(protocol, variant, bit, trent, _Uniforms([u]), check)

            for check in (False, True):
                for index, key in enumerate(keys):
                    t = table_round(index, check)
                    assert table_round(index, check) is t
                    assert branch_key(t) == key and t.is_check_bit is check
                for _ in range(40):
                    t = run_round_statevector(protocol, variant, bit, trent, generator, check)
                    assert table_round(keys.index(branch_key(t)), check) is t


class TestCorrespondenceTables:
    def test_protocol1_revised_matches_published_rows(self):
        rows = honest_correspondence_table(P1, REVISED)
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
        rows = honest_correspondence_table(P2, REVISED)
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
        rows = honest_correspondence_table(protocol, variant)
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

    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_original_matches_oracle_decode(self, protocol):
        rows = honest_correspondence_table(protocol, ORIGINAL)
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
        assert plan.bits.tolist() == [1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0]
        assert np.flatnonzero(plan.is_check).tolist() == [2, 3, 5, 7, 9, 11]
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

    @pytest.mark.parametrize("name", ["noise_probability", "abort_threshold"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_rates_outside_the_unit_interval_rejected(self, name, value):
        # a NaN threshold would pass every session, a NaN noise mean none
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

    @pytest.mark.parametrize("protocol,variant", ALL_COMBOS)
    def test_bulk_branch_choice_matches_run_round(self, protocol, variant):
        # run_session on given uniforms picks, round by round, the branch
        # run_round picks on the same uniform, edges of the table included
        trent = TrentStrategy.attack()
        plan = SessionPlan.build(rng(39).integers(0, 2, 200), 0.5, rng(40))
        edges = [u for bit in (0, 1) for u in round_distribution(protocol, variant, bit, trent)[0]]
        uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, rng(41).random(plan.bits.size)])
        uniforms = uniforms[: plan.bits.size]
        transcripts, _, _ = run_session(protocol, variant, plan, trent, _Uniforms(uniforms))
        expected = [
            run_round(protocol, variant, bit, trent, _Uniforms([u]), is_check_bit=check)
            for bit, check, u in zip(plan.bits.tolist(), plan.is_check.tolist(), uniforms.tolist())
        ]
        assert transcripts == expected
        # rounds with equal transcripts share one object
        assert len({id(t) for t in transcripts}) == len(set(transcripts))


class _Uniforms:
    """Stands in for a generator: `random()` and `random(n)` hand out the
    given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)


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
            (b.trent_announcement, b.bob_measurement, b.adversary_raw): i
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
        flips = sum(t.decoded_bit != tables[t.sent_bit][i].decoded_bit for t, i in rows)
        lower, upper = binomial_tails(flips, len(rows), noise)
        assert min(lower, upper) > FALSE_ALARM / 2, (flips, len(rows) * noise)


class TestTranscriptValidation:
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
