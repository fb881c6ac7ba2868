import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
import pins
from fit import binomial_fit, binomial_tails, chi2_critical
from qsdc import cli, harness
from qsdc.adversary import AnnouncementPolicy, StrategyKind, TrentStrategy
from qsdc.harness import (
    ConfigError,
    RunConfig,
    binomial_interval,
    emit_tables,
    render_tables,
    run_experiment,
    verify_identities,
)
from qsdc.protocol import (
    ENCODING_RULES,
    EncodingVariant,
    ProtocolId,
    SessionPlan,
    check_round_count,
    round_distribution,
)
from qsdc.qsim import Gate

P1, P2 = ProtocolId.PROTOCOL_1, ProtocolId.PROTOCOL_2
ORIGINAL, REVISED = EncodingVariant.ORIGINAL, EncodingVariant.REVISED
DATA = Path(__file__).parent / "data"


def run_qsdc(argv, **kwargs) -> subprocess.CompletedProcess:
    """`qsdc argv` in a fresh interpreter that imports this checkout's
    package; its stderr is captured as text."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "qsdc.cli", *argv], env=env, stderr=subprocess.PIPE,
                          text=True, timeout=60, **kwargs)


class TestRunConfig:
    def test_defaults_are_valid(self):
        RunConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("message_length", 0),
            ("check_fraction", 1.0),
            ("abort_threshold", 1.5),
            ("seed", -1),
            ("rounds_repeat", 0),
            ("output_format", "xml"),
            ("noise_probability", 2.0),
            ("protocol", 1),
            ("variant", "revised"),
            ("trent", "attack"),
        ],
    )
    def test_invalid_field_names_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["message_length", "seed", "rounds_repeat"])
    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["check_fraction", "abort_threshold", "noise_probability"])
    @pytest.mark.parametrize("value", ["0.5", None, "x", True], ids=repr)
    def test_real_fields_reject_non_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize(
        "trent,message",
        [
            (TrentStrategy("attack"), "trent must hold a StrategyKind"),
            (TrentStrategy(StrategyKind.ATTACK, "uniform"), "trent must hold a StrategyKind"),
            (TrentStrategy(StrategyKind.HONEST, AnnouncementPolicy.UNIFORM_RANDOM),
             "trent: an honest Trent takes no announcement_policy"),
        ],
        ids=["kind", "policy", "honest-with-policy"],
    )
    def test_malformed_strategy_is_rejected(self, trent, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            RunConfig(trent=trent)

    def test_session_count_cap(self):
        assert RunConfig(rounds_repeat=harness.MAX_SESSIONS).rounds_repeat == harness.MAX_SESSIONS
        for count in (harness.MAX_SESSIONS + 1, 10**12):
            with pytest.raises(ConfigError, match=f"rounds_repeat .* got {count}$"):
                RunConfig(rounds_repeat=count)

    def test_session_round_cap_names_the_count(self):
        with pytest.raises(ConfigError) as info:
            RunConfig(message_length=1000, check_fraction=0.999999)
        for part in ("check_fraction 0.999999", "message_length 1000", "1000000000 rounds"):
            assert part in str(info.value)

    @pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
    def test_numpy_integers_match_plain_ints(self, integer):
        plain = RunConfig(message_length=50, seed=3, rounds_repeat=2)
        config = RunConfig(message_length=integer(50), seed=integer(3), rounds_repeat=integer(2))
        assert type(config.seed) is int
        assert run_experiment(config).to_json() == run_experiment(plain).to_json()
        assert run_experiment(config).to_csv() == run_experiment(plain).to_csv()

    @pytest.mark.parametrize("real", [np.float32, Fraction], ids=["float32", "Fraction"])
    @pytest.mark.parametrize(
        "name,rate",
        [("check_fraction", 0.25), ("abort_threshold", 0.0625), ("noise_probability", 0.125)],
    )
    def test_other_real_rates_match_plain_floats(self, real, name, rate):
        # the rates are exact in float32, so the plain config is the same one
        base = dict(protocol=P2, variant=ORIGINAL, trent=TrentStrategy.attack(),
                    message_length=50, seed=3, rounds_repeat=2)
        plain = RunConfig(**base, **{name: rate})
        config = RunConfig(**base, **{name: real(rate)})
        assert type(getattr(config, name)) is float
        assert run_experiment(config).to_json() == run_experiment(plain).to_json()
        assert run_experiment(config).to_csv() == run_experiment(plain).to_csv()

    @pytest.mark.parametrize("zero", [0, np.int64(0)], ids=["int", "int64"])
    def test_integer_rate_keeps_its_bytes(self, zero):
        config = RunConfig(message_length=10, noise_probability=zero)
        assert type(config.noise_probability) is int
        plain = run_experiment(RunConfig(message_length=10, noise_probability=0))
        assert run_experiment(config).to_json() == plain.to_json()
        assert type(json.loads(plain.to_json())["config"]["noise_probability"]) is int


class TestRunExperiment:
    def test_honest_revised_is_error_free(self):
        report = run_experiment(
            RunConfig(protocol=P1, variant=REVISED, message_length=2000, seed=42)
        )
        assert report.bob_error_rate == 0.0
        assert report.abort_fraction == 0.0
        assert report.trent_guess_accuracy is None

    def test_attacked_original_leaks_everything(self):
        report = run_experiment(
            RunConfig(
                protocol=P1,
                variant=ORIGINAL,
                trent=TrentStrategy.attack(),
                message_length=2000,
                seed=42,
            )
        )
        assert report.trent_guess_accuracy == 1.0
        assert report.abort_fraction == 1.0

    def test_attacked_error_rate_matches_oracle(self):
        expected = oracle.attacked_error_probability(2, "original", 0)
        report = run_experiment(
            RunConfig(
                protocol=P2,
                variant=ORIGINAL,
                trent=TrentStrategy.attack(),
                message_length=5000,
                seed=1,
            )
        )
        sigma = np.sqrt(expected * (1 - expected) / report.check_rounds)
        assert abs(report.bob_error_rate - expected) < 3 * sigma

    def test_histogram_counts_sum_to_rounds(self):
        report = run_experiment(
            RunConfig(protocol=P2, variant=REVISED, message_length=500, seed=3, rounds_repeat=2)
        )
        assert sum(report.histogram.values()) == report.total_rounds

    def test_rates_lie_in_unit_interval(self):
        report = run_experiment(
            RunConfig(
                protocol=P1,
                variant=REVISED,
                trent=TrentStrategy.attack(),
                message_length=400,
                seed=9,
            )
        )
        for value in (
            report.bob_error_rate,
            report.trent_guess_accuracy,
            report.z_equal_fraction,
            report.abort_fraction,
        ):
            assert 0.0 <= value <= 1.0

    def test_noise_knob_reaches_abort_path(self):
        report = run_experiment(
            RunConfig(
                protocol=P1,
                variant=REVISED,
                message_length=500,
                seed=4,
                noise_probability=0.25,
            )
        )
        assert report.bob_error_rate > 0.02
        assert report.abort_fraction == 1.0


class TestDeterminism:
    def test_identical_configs_give_identical_reports(self):
        config = RunConfig(
            protocol=P2,
            variant=ORIGINAL,
            trent=TrentStrategy.attack(),
            message_length=1500,
            seed=123,
            rounds_repeat=3,
        )
        a = run_experiment(config).to_json()
        b = run_experiment(config).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(
            protocol=P1, variant=ORIGINAL, trent=TrentStrategy.attack(), message_length=500
        )
        a = run_experiment(RunConfig(seed=1, **base)).to_json()
        b = run_experiment(RunConfig(seed=2, **base)).to_json()
        assert a != b

    def test_csv_also_deterministic(self):
        config = RunConfig(protocol=P1, variant=REVISED, message_length=300, seed=5)
        assert run_experiment(config).to_csv() == run_experiment(config).to_csv()

    def test_csv_deterministic_with_repeats_and_noise(self):
        config = RunConfig(
            protocol=P2,
            variant=ORIGINAL,
            trent=TrentStrategy.attack(),
            message_length=200,
            seed=77,
            rounds_repeat=5,
            noise_probability=0.05,
        )
        first = run_experiment(config).to_csv()
        assert first == run_experiment(config).to_csv()
        assert first.count("\nsession_") == 5


class TestStatisticalSoundness:
    def test_sampled_rates_track_exact_values(self):
        # attacked revised guess accuracy has exact value 0.5; nearly all
        # independent seeds must land within 4 sigma
        expected = oracle.attacked_guess_accuracy(1, "revised")
        assert expected == pytest.approx(0.5, abs=1e-12)
        n_bits = 2000
        misses = 0
        for seed in range(40):
            report = run_experiment(
                RunConfig(
                    protocol=P1,
                    variant=REVISED,
                    trent=TrentStrategy.attack(),
                    message_length=n_bits // 2,
                    seed=seed,
                )
            )
            sigma = np.sqrt(0.25 / report.total_rounds)
            if abs(report.trent_guess_accuracy - expected) > 4 * sigma:
                misses += 1
        assert misses == 0


# Pearson chi-square fit of the pooled histogram, one check per config.
# Message and check bits are uniform and every round is independent, so
# the histogram is multinomial over the labels with probabilities
# 0.5 * sum over bits of p_bit(label).
FIT_CONFIGS = {
    "p1-revised-honest-noisy": RunConfig(
        protocol=P1, variant=REVISED, message_length=400, seed=101, rounds_repeat=5,
        noise_probability=0.05,
    ),
    "p1-original-attack": RunConfig(
        protocol=P1, variant=ORIGINAL, trent=TrentStrategy.attack(), message_length=300,
        seed=102, rounds_repeat=4,
    ),
    # Honest noiseless rounds: each label occurs under one bit only, so the
    # fit also tests that each round carries bit 1 with probability 1/2.
    "p1-revised-honest": RunConfig(
        protocol=P1, variant=REVISED, message_length=2000, seed=108, rounds_repeat=5,
    ),
    "p2-revised-attack-genuine": RunConfig(
        protocol=P2, variant=REVISED,
        trent=TrentStrategy.attack(AnnouncementPolicy.GENUINE_MEASUREMENT),
        message_length=250, seed=103, rounds_repeat=6,
    ),
    "p2-original-attack-noisy": RunConfig(
        protocol=P2, variant=ORIGINAL, trent=TrentStrategy.attack(), message_length=500,
        seed=104, rounds_repeat=3, noise_probability=0.2,
    ),
}
# Check-error counts of noisy runs against their exact binomial law, one
# two-sided check per config.
ERROR_CONFIGS = {
    "p2-revised-honest": RunConfig(
        protocol=P2, variant=REVISED, message_length=2000, seed=105, rounds_repeat=5,
        noise_probability=0.05,
    ),
    "p1-original-attack": RunConfig(
        protocol=P1, variant=ORIGINAL, trent=TrentStrategy.attack(), message_length=1000,
        seed=106, rounds_repeat=4, noise_probability=0.2,
    ),
}
# Per-session counts against their exact binomial law, one chi-square
# check per config: abort is decided per session, which the pooled checks
# above cannot see.  Each check round errs independently with probability
# w(1 - q) + (1 - w)q, for noiseless error probability w and noise q.
SESSION_ERROR_CONFIGS = {
    "p2-revised-honest-noisy": RunConfig(
        protocol=P2, variant=REVISED, message_length=100, seed=109, rounds_repeat=2000,
        noise_probability=0.05,
    ),
    "p1-original-attack-noisy": RunConfig(
        protocol=P1, variant=ORIGINAL, trent=TrentStrategy.attack(), message_length=100,
        seed=110, rounds_repeat=1000, noise_probability=0.1,
    ),
}
# Against the revised encoding Trent guesses each round's bit with
# probability 1/2, independently.
SESSION_HIT_CONFIG = RunConfig(
    protocol=P2, variant=REVISED, trent=TrentStrategy.attack(), message_length=100, seed=111,
    rounds_repeat=1000, noise_probability=0.05,
)
# False-alarm probability of each check.  With 5 + 2 + 3 checks, a correct
# sampler fails this class on an arbitrary seed with probability at most
# 1e-5.  No check is retried or re-seeded.
FALSE_ALARM = 1e-6


def label_probabilities(config: RunConfig) -> dict[str, float]:
    probabilities: dict[str, float] = {}
    for bit in (0, 1):
        _, branches = round_distribution(config.protocol, config.variant, bit, config.trent)
        for b in branches:
            label = f"{b.transcript.trent_announcement.name}/{b.transcript.bob_measurement.name}"
            probabilities[label] = probabilities.get(label, 0.0) + 0.5 * b.probability
    return probabilities


def check_error_probability(config: RunConfig) -> float:
    """Exact per-round probability that a check bit decodes wrongly after
    the noise flip."""
    wrong = sum(
        0.5 * b.probability
        for bit in (0, 1)
        for b in round_distribution(config.protocol, config.variant, bit, config.trent)[1]
        if b.transcript.decoded_bit != bit
    )
    q = config.noise_probability
    return wrong * (1 - q) + (1 - wrong) * q


class TestSamplerFit:
    @pytest.mark.parametrize("name", list(FIT_CONFIGS))
    def test_histogram_fits_the_exact_distribution(self, name):
        config = FIT_CONFIGS[name]
        report = run_experiment(config)
        probabilities = label_probabilities(config)
        assert set(report.histogram) <= set(probabilities)
        labels = sorted(probabilities)
        counts = np.array([report.histogram.get(label, 0) for label in labels])
        expected = report.total_rounds * np.array([probabilities[label] for label in labels])
        assert expected.min() >= 30
        statistic = float(np.sum((counts - expected) ** 2 / expected))
        assert statistic < chi2_critical(len(labels) - 1, FALSE_ALARM), statistic

    @pytest.mark.parametrize("name", list(ERROR_CONFIGS))
    def test_check_errors_follow_their_binomial(self, name):
        config = ERROR_CONFIGS[name]
        report = run_experiment(config)
        n = report.check_rounds
        assert n == config.rounds_repeat * config.message_length  # check fraction 0.5
        errors = round(report.bob_error_rate * n)
        lower, upper = binomial_tails(errors, n, check_error_probability(config))
        assert min(lower, upper) > FALSE_ALARM / 2, (errors, n * check_error_probability(config))


class TestSessionFit:
    @pytest.mark.parametrize("name", list(SESSION_ERROR_CONFIGS))
    def test_session_check_errors_follow_their_binomial(self, name):
        config = SESSION_ERROR_CONFIGS[name]
        report = run_experiment(config)
        n_check = check_round_count(config.message_length, config.check_fraction)
        errors = [round(s.error_rate * n_check) for s in report.sessions]
        assert len(errors) == config.rounds_repeat
        statistic, df = binomial_fit(errors, n_check, check_error_probability(config))
        assert statistic < chi2_critical(df, FALSE_ALARM), (statistic, df)

    def test_session_guess_hits_follow_binomial_one_half(self):
        config = SESSION_HIT_CONFIG
        report = run_experiment(config)
        n_rounds = report.total_rounds // config.rounds_repeat
        hits = [round(s.guess_accuracy * n_rounds) for s in report.sessions]
        statistic, df = binomial_fit(hits, n_rounds, 0.5)
        assert statistic < chi2_critical(df, FALSE_ALARM), (statistic, df)

    @pytest.mark.parametrize("protocol", [P1, P2])
    @pytest.mark.parametrize("variant", [ORIGINAL, REVISED])
    def test_exact_session_rates_under_attack(self, protocol, variant):
        # The original encoding leaks every bit; against the revised one
        # Trent's two z outcomes always agree.
        report = run_experiment(
            RunConfig(protocol=protocol, variant=variant, trent=TrentStrategy.attack(),
                      message_length=50, seed=112, rounds_repeat=300, noise_probability=0.1)
        )
        if variant is ORIGINAL:
            assert {s.guess_accuracy for s in report.sessions} == {1.0}
        else:
            assert {s.z_equal_fraction for s in report.sessions} == {1.0}


def reference_csv(report) -> str:
    """`report.to_csv()` as one csv.writer call per row.  Each session's
    cells come from its `session_counts` row, the report's per-session
    check and total rounds, and whether Trent attacked (his guess accuracy
    is set), not from `report.sessions`."""
    n = len(report.session_counts)
    n_check, n_rounds = report.check_rounds // n, report.total_rounds // n
    attacked = report.trent_guess_accuracy is not None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "error_rate", "aborted", "guess_accuracy", "z_equal_fraction"])
    for i, (errors, aborted, hits, z_equal) in enumerate(report.session_counts.tolist()):
        writer.writerow(
            [f"session_{i}", errors / n_check, aborted,
             hits / n_rounds if attacked else None, z_equal / n_rounds if attacked else None]
        )
    writer.writerow(
        ["summary", report.bob_error_rate, report.abort_fraction, report.trent_guess_accuracy,
         report.z_equal_fraction]
    )
    return buf.getvalue()


def sessions_csv(report) -> str:
    """`reference_csv` with the session rows written from `report.sessions`."""
    lines = reference_csv(report).splitlines(keepends=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, s in enumerate(report.sessions):
        writer.writerow(
            [f"session_{i}", s.error_rate, int(s.aborted), s.guess_accuracy, s.z_equal_fraction]
        )
    return lines[0] + buf.getvalue() + lines[-1]


class TestCsv:
    def test_attacked_noisy_csv_matches_the_writer(self):
        report = run_experiment(
            RunConfig(protocol=P1, variant=REVISED, trent=TrentStrategy.attack(),
                      message_length=10, seed=13, rounds_repeat=200, noise_probability=0.1,
                      abort_threshold=0.5)
        )
        rows = reference_csv(report).splitlines()[1:-1]
        assert len(rows) == 200
        assert {row.split(",")[2] for row in rows} == {"0", "1"}
        assert len({row.partition(",")[2] for row in rows}) < 200  # repeated rows
        assert report.to_csv() == reference_csv(report)

    def test_honest_csv_matches_the_writer(self):
        report = run_experiment(
            RunConfig(protocol=P2, variant=REVISED, message_length=20, seed=14,
                      rounds_repeat=200, noise_probability=0.05)
        )
        text = reference_csv(report)
        assert "," * 2 + "\n" in text  # the empty attack cells
        assert report.to_csv() == text

    def test_many_repeated_rows_match_the_pinned_csv(self):
        # tests/data/run_p2_many_sessions.csv is the output of `qsdc run
        # --protocol 2 --bits 100 --repeat 1000 --noise 0.01 --seed 9
        # --format csv`: 1000 session rows with only 7 distinct cell sets
        pinned = (Path(__file__).parent / "data" / "run_p2_many_sessions.csv").read_bytes()
        report = run_experiment(
            RunConfig(protocol=P2, message_length=100, seed=9, rounds_repeat=1000,
                      noise_probability=0.01)
        )
        assert report.to_csv().encode() == pinned, pins.versions()

    def test_many_distinct_rows_match_the_pinned_digest(self):
        # tests/data/run_p1_attack_100k_sessions.sha256 is `sha256sum` of
        # `qsdc run --protocol 1 --variant original --trent attack --bits
        # 100000 --repeat 100000 --noise 0.05 --seed 9 --format csv`:
        # 3,621,561 bytes, 89,706 distinct session rows, labels of one to five digits
        pinned = (Path(__file__).parent / "data" / "run_p1_attack_100k_sessions.sha256").read_text()
        report = run_experiment(
            RunConfig(protocol=P1, variant=ORIGINAL, trent=TrentStrategy.attack(),
                      message_length=100000, seed=9, rounds_repeat=100000, noise_probability=0.05)
        )
        digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
        assert digest == pinned.split()[0], pins.versions()

    def test_honest_north_star_csv_matches_the_pinned_digest(self):
        # tests/data/run_p2_honest_10k_sessions.sha256 is `sha256sum` of
        # `qsdc run --protocol 2 --variant revised --trent honest --bits 100
        # --repeat 10000 --noise 0.05 --seed 9 --format csv`: 10^4 sessions
        # of 100 bits, labels of one to four digits, empty attack cells
        pinned = (Path(__file__).parent / "data" / "run_p2_honest_10k_sessions.sha256").read_text()
        report = run_experiment(
            RunConfig(protocol=P2, variant=REVISED, message_length=100, seed=9, rounds_repeat=10000,
                      noise_probability=0.05)
        )
        digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
        assert digest == pinned.split()[0], pins.versions()

    @pytest.mark.parametrize("trent", [TrentStrategy.honest(), TrentStrategy.attack()], ids=["honest", "attack"])
    def test_only_printed_rate_columns_are_deduplicated(self, trent, monkeypatch):
        report = run_experiment(
            RunConfig(protocol=P2, trent=trent, message_length=100, seed=9, rounds_repeat=1000,
                      noise_probability=0.01)
        )
        expected = reference_csv(report)
        deduplicated = []
        unique = np.unique

        def spy(values, *args, **kwargs):
            deduplicated.append(values)
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        assert report.to_csv() == expected
        attacked = trent.kind is StrategyKind.ATTACK
        assert len(deduplicated) == (3 if attacked else 1)
        flags = report.session_counts[:, 1]
        assert not any(np.shares_memory(values, flags) or np.array_equal(values, flags)
                       for values in deduplicated)

    @pytest.mark.parametrize("trent", [TrentStrategy.honest(), TrentStrategy.attack()], ids=["honest", "attack"])
    @pytest.mark.parametrize("threshold, noise, aborted", [(1.0, 0.05, "0"), (0.0, 0.5, "1")],
                             ids=["none_abort", "all_abort"])
    def test_uniform_abort_flags_match_the_writer(self, trent, threshold, noise, aborted):
        report = run_experiment(
            RunConfig(protocol=P1, variant=REVISED, trent=trent, message_length=30, seed=21,
                      rounds_repeat=500, noise_probability=noise, abort_threshold=threshold)
        )
        rows = reference_csv(report).splitlines()[1:-1]
        assert {row.split(",")[2] for row in rows} == {aborted}
        assert report.abort_fraction == int(aborted)
        assert report.to_csv() == reference_csv(report)
        assert sessions_csv(report) == reference_csv(report)

    @pytest.mark.parametrize("trent", [TrentStrategy.honest(), TrentStrategy.attack()], ids=["honest", "attack"])
    @pytest.mark.parametrize("sessions", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
    def test_labels_of_every_width_match_the_writer(self, sessions, trent):
        # session labels gain a digit at 10, 100 and 1000 sessions
        report = run_experiment(
            RunConfig(protocol=P1, variant=ORIGINAL, trent=trent, message_length=40,
                      seed=sessions, rounds_repeat=sessions, noise_probability=0.1)
        )
        text = report.to_csv()
        assert text == reference_csv(report)
        assert text.count("summary,") == 1 and text.splitlines()[-1].startswith("summary,")


class TestSessionCounts:
    def test_run_and_reports_build_no_session_stats(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a SessionStats")

        monkeypatch.setattr(harness, "SessionStats", refuse)
        report = run_experiment(
            RunConfig(protocol=P2, trent=TrentStrategy.attack(), message_length=100, seed=9,
                      rounds_repeat=1000, noise_probability=0.01)
        )
        assert json.loads(report.to_json())["total_rounds"] == 1000 * 200
        assert report.to_csv().count("\nsession_") == 1000

    @pytest.mark.parametrize("trent", [TrentStrategy.honest(), TrentStrategy.attack()], ids=["honest", "attack"])
    def test_sessions_hold_the_csv_values_with_their_types(self, trent):
        config = RunConfig(protocol=P1, variant=REVISED, trent=trent, message_length=10, seed=13,
                           rounds_repeat=200, noise_probability=0.1, abort_threshold=0.5)
        report = run_experiment(config)
        sessions = report.sessions
        assert report.sessions is sessions  # built once
        assert len(sessions) == 200
        assert len(set(map(id, sessions))) == 200  # no session shares another's object
        attacked = trent.kind is StrategyKind.ATTACK
        attack_type = float if attacked else type(None)
        assert {tuple(map(type, dataclasses.astuple(s))) for s in sessions} == {
            (float, bool, attack_type, attack_type)
        }
        assert report.to_csv() == reference_csv(report)
        assert sessions_csv(report) == reference_csv(report)
        assert sum(s.error_rate for s in sessions) / 200 == pytest.approx(report.bob_error_rate)
        assert sum(s.aborted for s in sessions) / 200 == report.abort_fraction
        if attacked:
            assert sum(s.guess_accuracy for s in sessions) / 200 == pytest.approx(
                report.trent_guess_accuracy
            )

    def test_report_compares_and_prints_without_its_counts(self):
        report = run_experiment(RunConfig(message_length=20, seed=3, rounds_repeat=50))
        copy = dataclasses.replace(report, session_counts=report.session_counts.copy())
        assert report == report
        assert copy == report
        # a second run differs only in its wall time
        assert run_experiment(RunConfig(message_length=20, seed=3, rounds_repeat=50)) == report
        assert "session_counts" not in repr(report)
        assert report.session_counts.shape == (50, 4)
        with pytest.raises(ValueError):
            report.session_counts[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.sessions = ()

    def test_timing_adds_only_the_wall_time(self):
        report = run_experiment(RunConfig(message_length=20, seed=3, rounds_repeat=5))
        default, timed = json.loads(report.to_json()), json.loads(report.to_json(include_timing=True))
        assert list(timed) == [*default, "wall_time"]
        wall_time = timed.pop("wall_time")
        assert type(wall_time) is float and wall_time >= 0.0
        assert timed == default


class TestBitCounts:
    def test_run_builds_no_session_plan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment built a SessionPlan")

        monkeypatch.setattr(SessionPlan, "build", refuse)
        report = run_experiment(RunConfig(message_length=300, seed=8, rounds_repeat=3))
        assert report.total_rounds == 3 * 600

    def test_warm_run_reads_only_the_cached_classes(self, monkeypatch):
        config = RunConfig(protocol=P2, variant=ORIGINAL, trent=TrentStrategy.attack(),
                           message_length=300, seed=8, rounds_repeat=3, noise_probability=0.05)
        report = run_experiment(config).to_json()

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment read the branch tables again")

        monkeypatch.setattr("qsdc.protocol.round_distribution", refuse)
        assert run_experiment(config).to_json() == report

    @pytest.mark.parametrize(
        "message_length,check_fraction,n_check",
        # the at-least-one floor, 4.5 rounded in floating point, exact
        # ratios, a near-integer ratio, and 0.999 of the session
        [(1, 0.01, 1), (3, 0.6, 4), (90, 0.1, 10), (7, 0.3, 3), (1000, 0.999, 999000)],
    )
    def test_check_rounds_follow_the_shared_count(self, message_length, check_fraction, n_check):
        assert check_round_count(message_length, check_fraction) == n_check
        plan = SessionPlan.build([1] * message_length, check_fraction, np.random.default_rng(0))
        assert np.count_nonzero(plan.is_check) == n_check
        config = RunConfig(
            message_length=message_length, check_fraction=check_fraction, seed=9, rounds_repeat=4
        )
        report = run_experiment(config)
        assert report.check_rounds == 4 * n_check
        assert report.total_rounds == 4 * (message_length + n_check)


class TestIdentitiesAndTables:
    def test_verify_identities_all_pass(self):
        assert all(residual < 1e-12 for _, residual in verify_identities())

    def test_emit_tables_covers_all_pairs(self):
        tables = emit_tables()
        assert set(tables) == {(p, v) for p in ProtocolId for v in EncodingVariant}
        for rows in tables.values():
            assert len(rows) == 8  # 4 reachable pairs per bit

    def test_render_tables_matches_the_pinned_output(self):
        # tests/data/tables.txt is `qsdc tables` output: render_tables()
        # plus print's newline
        pinned = (Path(__file__).parent / "data" / "tables.txt").read_bytes()
        assert (render_tables() + "\n").encode() == pinned, pins.versions()

    def test_render_tables_mentions_all_outcomes(self):
        text = render_tables()
        for name in ("PHI_PLUS", "PSI_MINUS", "PLUS", "MINUS"):
            assert name in text


PIN_TRENTS = {
    "honest": TrentStrategy.honest(),
    "attack": TrentStrategy.attack(),
    "attack-genuine": TrentStrategy.attack(AnnouncementPolicy.GENUINE_MEASUREMENT),
    "attack-uniform": TrentStrategy.attack(AnnouncementPolicy.UNIFORM_RANDOM),
}
# (message bits, sessions) of the two pinned report shapes
PIN_SHAPES = {"1x997": (997, 1), "7x37": (37, 7)}
PIN_SEEDS = (9, 10)


def report_digests() -> dict[str, str]:
    """sha256 of the JSON and CSV report of every (protocol, variant,
    Trent) configuration in both pinned shapes and seeds, at noise 0.05
    and check fraction 0.3, keyed protocol/variant/trent/shape/seed/format.

    tests/data/report_digests.json is this function's output, written
    once and never regenerated: only a deliberate report change (one that
    bumps SCHEMA_VERSION) may rewrite it."""
    digests = {}
    for p in ProtocolId:
        for v in EncodingVariant:
            for name, trent in PIN_TRENTS.items():
                for shape, (bits, sessions) in PIN_SHAPES.items():
                    for seed in PIN_SEEDS:
                        report = run_experiment(RunConfig(
                            protocol=p, variant=v, trent=trent, message_length=bits,
                            rounds_repeat=sessions, noise_probability=0.05,
                            check_fraction=0.3, seed=seed,
                        ))
                        key = f"p{p.value}/{v.value}/{name}/{shape}/{seed}"
                        for fmt, text in (("json", report.to_json()), ("csv", report.to_csv())):
                            digests[f"{key}/{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


class TestReportPins:
    def test_pin_failures_name_the_pinning_and_running_versions(self):
        message = pins.versions()
        assert "numpy 2.4.6, Python 3.11.7" in message
        assert f"running numpy {np.__version__}, Python " in message
        assert "test_generator_stream_holds" in message

    def test_every_configuration_matches_its_pinned_report_bytes(self):
        pinned = json.loads((Path(__file__).parent / "data" / "report_digests.json").read_text())
        assert len(pinned) == 2 * 2 * 4 * 2 * 2 * 2
        digests = report_digests()
        assert [key for key in pinned if digests[key] != pinned[key]] == [], pins.versions()
        assert digests == pinned, pins.versions()


class TestBinomialInterval:
    def test_basic_properties(self):
        low, high = binomial_interval(50, 100)
        assert low < 0.5 < high
        assert binomial_interval(0, 0) == (0.0, 0.0)
        assert binomial_interval(0, 100)[0] == 0.0
        assert binomial_interval(100, 100)[1] == 1.0

    def test_rates_zero_and_one_end_exactly_at_zero_and_one(self):
        # without its guards the computed end misses 0.0 or 1.0 by a
        # rounding error, from n = 11 on for the lower end
        trials = range(1, 10**4 + 1)
        assert [n for n in trials if binomial_interval(0, n)[0] != 0.0] == []
        assert [n for n in trials if binomial_interval(n, n)[1] != 1.0] == []

    def test_wilson_width_is_positive_at_rate_one(self):
        report = run_experiment(
            RunConfig(
                protocol=P1, variant=ORIGINAL, trent=TrentStrategy.attack(),
                message_length=500, seed=12,
            )
        )
        assert report.trent_guess_accuracy == 1.0
        low, high = report.trent_guess_interval
        assert high == 1.0 and 0.99 < low < 1.0
        assert type(low) is float and type(high) is float

    def test_matches_wilson_formula(self):
        # the Wilson interval of 8 successes in 10 trials at z = 1.96
        low, high = binomial_interval(8, 10)
        assert low == pytest.approx(0.4902, abs=1e-4)
        assert high == pytest.approx(0.9433, abs=1e-4)


class TestCli:
    # the `qsdc run` arguments that print tests/data/run_p2_original_honest.csv
    HONEST_P2_CSV = ["run", "--protocol", "2", "--variant", "original", "--trent", "honest",
                     "--bits", "997", "--repeat", "3", "--noise", "0.05", "--seed", "9",
                     "--format", "csv"]

    def test_run_json_to_stdout(self, capsys):
        status = cli.main(
            ["run", "--protocol", "1", "--variant", "revised", "--trent", "honest",
             "--bits", "200", "--seed", "11"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bob_error_rate"] == 0.0
        assert payload["schema_version"] == harness.SCHEMA_VERSION
        assert payload["config"]["seed"] == 11

    def test_run_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        status = cli.main(
            ["run", "--bits", "100", "--format", "csv", "--seed", "2", "--out", str(out)]
        )
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("row,")
        assert lines[-1].startswith("summary,")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# experiment setup\nprotocol = 2\nvariant = original\ntrent = attack\n"
            "bits = 150\nseed = 6\n"
        )
        status = cli.main(["run", "--config", str(config), "--seed", "7"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["protocol"] == 2
        assert payload["config"]["seed"] == 7  # flag wins
        assert payload["trent_guess_accuracy"] == 1.0

    @pytest.mark.parametrize(
        "pinned,flags",
        [
            ("run_p1_original_attack.json", ["--protocol", "1", "--trent", "attack"]),
            ("run_p2_original_honest.csv", ["--protocol", "2", "--trent", "honest", "--format", "csv"]),
            ("run_p2_original_honest.json", ["--protocol", "2", "--trent", "honest", "--format", "json"]),
        ],
    )
    def test_run_matches_the_pinned_report(self, pinned, flags, capsys):
        # tests/data/run_* are `qsdc run` output for these flags; a change
        # to any report byte for the same config shows here
        argv = ["run", *flags, "--variant", "original", "--bits", "997", "--repeat", "3",
                "--noise", "0.05", "--seed", "9"]
        assert cli.main(argv) == 0
        expected = (Path(__file__).parent / "data" / pinned).read_bytes()
        assert capsys.readouterr().out.encode() == expected, pins.versions()

    def test_run_without_flags_builds_the_default_config(self):
        args = cli.make_parser().parse_args(["run"])
        assert cli.build_run_config(args) == RunConfig()

    @pytest.mark.parametrize(
        "line", ["trent = spy", "announcement_policy = loud", "protocol = 3", "bits = many"]
    )
    def test_invalid_config_file_value_exits_cleanly(self, tmp_path, capsys, line):
        # an invalid policy is an error even when Trent is honest
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert cli.main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize(
        "flag",
        [["--bits", "-5"], ["--protocol", "3"], ["--variant", "x"], ["--trent", "spy"],
         ["--bits", "many"], ["--bits", "1000", "--check-fraction", "0.999999"],
         ["--repeat", "1000000000000"], ["--noise", "nan"]],
        ids=" ".join,
    )
    def test_bad_config_value_exits_nonzero(self, capsys, flag):
        # flag values go through the same parsers as config-file values
        assert cli.main(["run", *flag]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--protocol", "3"], "protocol must be a ProtocolId, got '3'"),
            (["--variant", "x"], "variant must be an EncodingVariant, got 'x'"),
            (["--trent", "spy"], "trent must be a StrategyKind, got 'spy'"),
            (["--announcement-policy", "y"], "announcement_policy must be an AnnouncementPolicy, got 'y'"),
        ],
        ids=["protocol", "variant", "trent", "announcement-policy"],
    )
    def test_bad_enum_value_gets_the_api_message(self, capsys, flag, message):
        # the CLI and RunConfig give one bad value one text
        assert cli.main(["run", *flag]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--trent", "honest", "--announcement-policy", "uniform"], ["--announcement-policy", "genuine"]],
        ids=" ".join,
    )
    def test_honest_trent_with_a_policy_exits_cleanly(self, capsys, flags):
        assert cli.main(["run", *flags]) == 2
        assert capsys.readouterr().err.startswith("configuration error: trent: an honest Trent")

    def test_session_cap_exits_before_running(self, monkeypatch, capsys):
        def run_experiment(config):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        assert cli.main(["run", "--repeat", "1000000000000"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: rounds_repeat")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("qubits = 3\n")
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_config_line_without_equals_rejected(self, tmp_path, capsys):
        config = tmp_path / "bare.cfg"
        config.write_text("# setup\nseed = 1\nbits 100\n")
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {config}:3: expected 'key = value', got 'bits 100'")

    def test_duplicate_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "dup.cfg"
        config.write_text("seed = 1\nbits = 100\nseed = 2\n")
        assert cli.main(["run", "--config", str(config)]) == 2
        assert f"{config}:3: duplicate key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_config_file_exits_cleanly(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b"seed = \xff\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config file {str(path)!r}: ")

    def test_unwritable_out_path_exits_cleanly(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.json"
        assert cli.main(["run", "--bits", "20", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert not out.exists()

    def test_overwrite_keeps_the_file_and_drops_its_old_tail(self, tmp_path):
        # the 1000-session CSV, then the 3-session one over it
        out = tmp_path / "report.csv"
        long_run = ["run", "--protocol", "2", "--bits", "100", "--repeat", "1000", "--noise", "0.01",
                    "--seed", "9", "--format", "csv", "--out", str(out)]
        assert cli.main(long_run) == 0
        assert out.read_bytes() == (DATA / "run_p2_many_sessions.csv").read_bytes()
        out.chmod(0o600)
        inode = out.stat().st_ino
        assert cli.main([*self.HONEST_P2_CSV, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "run_p2_original_honest.csv").read_bytes()
        assert out.stat().st_ino == inode
        assert out.stat().st_mode & 0o777 == 0o600

    def test_failed_overwrite_leaves_no_old_tail(self, tmp_path, monkeypatch, capsys):
        # the disk fills after the first 100 bytes of the new report
        out = tmp_path / "report.csv"
        out.write_text("old report\n" * 1000)
        real_write = os.write
        calls = []

        def write_then_fail(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:100])

        monkeypatch.setattr(os, "write", write_then_fail)
        status = cli.main([*self.HONEST_P2_CSV, "--out", str(out)])
        monkeypatch.undo()
        assert status == 1 and len(calls) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 28]")
        assert out.read_bytes() == b""

    def test_symlinked_out_is_written_through(self, tmp_path):
        target, link = tmp_path / "report.csv", tmp_path / "link.csv"
        target.write_text("old report\n" * 1000)
        link.symlink_to(target.name)
        assert cli.main([*self.HONEST_P2_CSV, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == (DATA / "run_p2_original_honest.csv").read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason=f"no {os.devnull}")
    def test_out_to_the_null_device(self, capsys):
        assert cli.main([*self.HONEST_P2_CSV, "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_verify_subcommand(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 16
        assert "FAIL" not in out

    def test_tables_subcommand(self, capsys):
        assert cli.main(["tables"]) == 0
        assert "protocol 1, revised encoding" in capsys.readouterr().out

    def test_verify_fails_under_a_wrong_encoding(self, monkeypatch, capsys):
        # revised bit 1 as X-then-H breaks the revised bit-1 identities
        monkeypatch.setitem(ENCODING_RULES[REVISED], 1, (Gate.PAULI_X, Gate.HADAMARD))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 4 and out.count("ok") == 12

    def test_tables_exit_cleanly_when_the_decode_map_is_not_single_valued(self, encoding_rules, capsys):
        encoding_rules((Gate.HADAMARD,), (Gate.HADAMARD,))
        assert cli.main(["tables"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: decode map not single-valued")

    def test_a_closed_stdout_ends_the_run_without_a_traceback(self):
        # as in `qsdc run ... | true`: the reader is gone before the first write
        read, write = os.pipe()
        os.close(read)
        try:
            result = run_qsdc(self.HONEST_P2_CSV, stdout=write)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", [HONEST_P2_CSV, ["tables"], ["verify"]], ids=["run", "tables", "verify"])
    def test_a_full_stdout_ends_the_command_with_one_error_line(self, argv):
        # as in `qsdc run ... > /dev/full`: every write fails with ENOSPC
        with open("/dev/full", "w") as full:
            result = run_qsdc(argv, stdout=full)
        assert (result.returncode, result.stderr) == (1, "error: [Errno 28] No space left on device\n")

    def test_an_empty_out_path_is_an_error_not_stdout(self):
        result = run_qsdc([*self.HONEST_P2_CSV, "--out", ""], stdout=subprocess.PIPE)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: ")

    def test_an_empty_config_path_is_read_not_ignored(self):
        result = run_qsdc(["run", "--bits", "20", "--config", ""], stdout=subprocess.PIPE)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("configuration error: cannot read config file '': ")
