"""Batch experiment driver: seeded Monte Carlo runs, exact identity
verification, correspondence tables, and machine-readable reports."""
from __future__ import annotations

import csv
import io
import json
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import adversary, protocol, qsim
from .adversary import AnnouncementPolicy, StrategyKind, TrentStrategy
from .protocol import EncodingVariant, ProtocolId, SessionPlan
from .qsim import BellOutcome, Gate, StateVector, XOutcome

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A RunConfig field failed validation; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolId = ProtocolId.PROTOCOL_1
    variant: EncodingVariant = EncodingVariant.REVISED
    trent: TrentStrategy = field(default_factory=TrentStrategy.honest)
    message_length: int = 1000
    check_fraction: float = 0.5
    abort_threshold: float = 0.02
    seed: int = 0
    rounds_repeat: int = 1
    output_format: str = "json"
    noise_probability: float = 0.0

    def __post_init__(self):
        # Accept any integer type except bool; store it as a plain int so
        # that describe() and the reports serialize it.
        for name in ("message_length", "seed", "rounds_repeat"):
            value = getattr(self, name)
            if isinstance(value, numbers.Integral) and not isinstance(value, bool):
                object.__setattr__(self, name, int(value))
        if type(self.message_length) is not int or self.message_length < 1:
            raise ConfigError(f"message_length must be a positive integer, got {self.message_length}")
        if not 0.0 < self.check_fraction < 1.0:
            raise ConfigError(f"check_fraction must lie in (0,1), got {self.check_fraction}")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ConfigError(f"abort_threshold must lie in [0,1], got {self.abort_threshold}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if type(self.rounds_repeat) is not int or self.rounds_repeat < 1:
            raise ConfigError(f"rounds_repeat must be a positive integer, got {self.rounds_repeat}")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output_format must be 'json' or 'csv', got {self.output_format!r}")
        if not 0.0 <= self.noise_probability <= 1.0:
            raise ConfigError(f"noise_probability must lie in [0,1], got {self.noise_probability}")

    def describe(self) -> dict:
        policy = self.trent.announcement_policy
        return {
            "protocol": self.protocol.value,
            "variant": self.variant.value,
            "trent": self.trent.kind.value,
            "announcement_policy": policy.value if policy else None,
            "message_length": self.message_length,
            "check_fraction": self.check_fraction,
            "abort_threshold": self.abort_threshold,
            "seed": self.seed,
            "rounds_repeat": self.rounds_repeat,
            "noise_probability": self.noise_probability,
        }


@dataclass(frozen=True)
class SessionStats:
    error_rate: float
    aborted: bool
    guess_accuracy: float | None
    z_equal_fraction: float | None


@dataclass(frozen=True)
class RunReport:
    config: dict
    total_rounds: int
    check_rounds: int
    bob_error_rate: float
    bob_error_interval: tuple[float, float]
    trent_guess_accuracy: float | None
    trent_guess_interval: tuple[float, float] | None
    z_equal_fraction: float | None
    abort_fraction: float
    histogram: dict[str, int]
    sessions: tuple[SessionStats, ...]
    wall_time: float

    def to_json(self, include_timing: bool = False) -> str:
        """Stable-key-order JSON.  Wall time is excluded by default so that
        identical configs produce byte-identical reports."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "total_rounds": self.total_rounds,
            "check_rounds": self.check_rounds,
            "bob_error_rate": self.bob_error_rate,
            "bob_error_interval": list(self.bob_error_interval),
            "trent_guess_accuracy": self.trent_guess_accuracy,
            "trent_guess_interval": (
                list(self.trent_guess_interval) if self.trent_guess_interval else None
            ),
            "z_equal_fraction": self.z_equal_fraction,
            "abort_fraction": self.abort_fraction,
            "histogram": dict(sorted(self.histogram.items())),
        }
        if include_timing:
            payload["wall_time"] = self.wall_time
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        """One row per session plus a summary row."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["row", "error_rate", "aborted", "guess_accuracy", "z_equal_fraction"]
        )
        for i, s in enumerate(self.sessions):
            writer.writerow(
                [f"session_{i}", s.error_rate, int(s.aborted), s.guess_accuracy, s.z_equal_fraction]
            )
        writer.writerow(
            [
                "summary",
                self.bob_error_rate,
                self.abort_fraction,
                self.trent_guess_accuracy,
                self.z_equal_fraction,
            ]
        )
        return buf.getvalue()


def binomial_interval(successes: int, trials: int) -> tuple[float, float]:
    """Normal-approximation 95% interval for a binomial rate."""
    if trials == 0:
        return (0.0, 0.0)
    p = successes / trials
    half = 1.96 * np.sqrt(p * (1.0 - p) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


def _branch_arrays(config: RunConfig):
    """Per-bit branch lookup tables for vectorized session execution."""
    tables = {}
    labels: list[str] = []
    label_index: dict[str, int] = {}
    for bit in (0, 1):
        cumulative, branches = protocol.round_distribution(
            config.protocol, config.variant, bit, config.trent
        )
        decoded = np.array([b.decoded_bit for b in branches])
        has_guess = branches[0].adversary_guess is not None
        guesses = (
            np.array([b.adversary_guess for b in branches]) if has_guess else None
        )
        z_equal = (
            np.array(
                [b.adversary_raw[0] == b.adversary_raw[1] for b in branches]
            )
            if has_guess
            else None
        )
        label_ids = []
        for b in branches:
            label = f"{b.trent_announcement.name}/{b.bob_measurement.name}"
            if label not in label_index:
                label_index[label] = len(labels)
                labels.append(label)
            label_ids.append(label_index[label])
        tables[bit] = (
            np.asarray(cumulative),
            decoded,
            guesses,
            z_equal,
            np.array(label_ids),
        )
    return tables, labels


def _run_session_vectorized(config: RunConfig, plan: SessionPlan, rng, tables, n_labels):
    """One session's statistics without materializing transcripts.

    Distributionally identical to `protocol.run_session`; each round is an
    independent draw from the exact branch distribution of its bit.
    """
    total = plan.num_rounds
    is_check = np.zeros(total, dtype=bool)
    is_check[list(plan.check_positions)] = True
    bits = np.empty(total, dtype=np.int64)
    bits[~is_check] = plan.message_bits
    bits[is_check] = plan.check_bits

    draws = rng.random(total)
    decoded = np.empty(total, dtype=np.int64)
    guesses = np.full(total, -1, dtype=np.int64)
    z_equal = np.zeros(total, dtype=bool)
    label_counts = np.zeros(n_labels, dtype=np.int64)
    has_guess = False
    for bit in (0, 1):
        mask = bits == bit
        if not mask.any():
            continue
        cumulative, dec, guess_arr, zeq_arr, label_ids = tables[bit]
        idx = np.minimum(
            np.searchsorted(cumulative, draws[mask], side="right"), len(dec) - 1
        )
        decoded[mask] = dec[idx]
        if guess_arr is not None:
            has_guess = True
            guesses[mask] = guess_arr[idx]
            z_equal[mask] = zeq_arr[idx]
        label_counts += np.bincount(label_ids[idx], minlength=n_labels)

    if config.noise_probability > 0.0:
        flips = rng.random(total) < config.noise_probability
        decoded = decoded ^ flips

    check_errors = int(np.sum((decoded != bits) & is_check))
    n_check = int(is_check.sum())
    error_rate = check_errors / n_check if n_check else 0.0
    aborted = error_rate > config.abort_threshold
    if has_guess:
        guess_hits = int(np.sum(guesses == bits))
        equal = int(np.sum(z_equal))
    else:
        guess_hits = equal = None
    return total, n_check, check_errors, error_rate, aborted, guess_hits, equal, label_counts


def run_experiment(config: RunConfig) -> RunReport:
    """Execute `rounds_repeat` seeded sessions and aggregate their metrics.

    Sessions draw from independent substreams of the configured seed, so a
    report is bit-identical across runs with the same config.
    """
    start = time.perf_counter()
    tables, labels = _branch_arrays(config)

    histogram: Counter[str] = Counter()
    check_total = check_errors = 0
    guess_total = guess_hits = 0
    z_total = z_equal = 0
    aborts = 0
    total_rounds = 0
    session_stats = []

    for session_index in range(config.rounds_repeat):
        plan_seq, round_seq = np.random.SeedSequence(
            entropy=config.seed, spawn_key=(session_index,)
        ).spawn(2)
        plan_rng = np.random.default_rng(plan_seq)
        message_bits = plan_rng.integers(0, 2, size=config.message_length)
        plan = SessionPlan.build(message_bits, config.check_fraction, plan_rng)
        (
            n_rounds,
            n_check,
            errors,
            error_rate,
            aborted,
            hits,
            equal,
            label_counts,
        ) = _run_session_vectorized(
            config, plan, np.random.default_rng(round_seq), tables, len(labels)
        )

        total_rounds += n_rounds
        aborts += aborted
        check_total += n_check
        check_errors += errors
        for label, count in zip(labels, label_counts):
            if count:
                histogram[label] += int(count)

        accuracy = equal_frac = None
        if hits is not None:
            guess_total += n_rounds
            guess_hits += hits
            z_total += n_rounds
            z_equal += equal
            accuracy = hits / n_rounds
            equal_frac = equal / n_rounds
        session_stats.append(
            SessionStats(
                error_rate=error_rate,
                aborted=aborted,
                guess_accuracy=accuracy,
                z_equal_fraction=equal_frac,
            )
        )

    return RunReport(
        config=config.describe(),
        total_rounds=total_rounds,
        check_rounds=check_total,
        bob_error_rate=check_errors / check_total if check_total else 0.0,
        bob_error_interval=binomial_interval(check_errors, check_total),
        trent_guess_accuracy=guess_hits / guess_total if guess_total else None,
        trent_guess_interval=(
            binomial_interval(guess_hits, guess_total) if guess_total else None
        ),
        z_equal_fraction=z_equal / z_total if z_total else None,
        abort_fraction=aborts / config.rounds_repeat,
        histogram=dict(histogram),
        sessions=tuple(session_stats),
        wall_time=time.perf_counter() - start,
    )


# --- exact identity verification -------------------------------------------

_PLUS, _MINUS = XOutcome.PLUS, XOutcome.MINUS
_PHI_P, _PHI_M = BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS
_PSI_P, _PSI_M = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS

_AB_PAIR = (adversary.QUBIT_A, adversary.QUBIT_B)
_AT_PAIR = (adversary.QUBIT_A, adversary.QUBIT_T)

# Gate sequences on qubit A (applied left to right) per identity.
_H = (Gate.HADAMARD,)
_HX = (Gate.PAULI_X, Gate.HADAMARD)
_HZ = (Gate.PAULI_Z, Gate.HADAMARD)
_HH = (Gate.HADAMARD, Gate.HADAMARD)
_HHX = (Gate.PAULI_X, Gate.HADAMARD, Gate.HADAMARD)
_HHZ = (Gate.PAULI_Z, Gate.HADAMARD, Gate.HADAMARD)

# Right-hand sides: either a computational superposition (index -> coeff)
# or a Bell/X product expansion 0.5 * sum coeff |bell>_pair |x>_single.
_GHZ_PLUS = {0: 1, 7: 1}
_GHZ_MINUS = {0: 1, 7: -1}
_FLIPPED = {4: 1, 3: 1}

_BIT0_EXPANSION = [(1, _PHI_P, _MINUS), (-1, _PSI_M, _MINUS), (1, _PHI_M, _PLUS), (1, _PSI_P, _PLUS)]
_X1_EXPANSION = [(1, _PHI_M, _MINUS), (-1, _PSI_P, _MINUS), (1, _PHI_P, _PLUS), (1, _PSI_M, _PLUS)]
_Z1_EXPANSION = [(1, _PHI_M, _MINUS), (1, _PSI_P, _MINUS), (1, _PHI_P, _PLUS), (-1, _PSI_M, _PLUS)]

# (identity id, gate sequence, pair or None, expansion / computational form).
# Identity 13 is taken in its (A,T)-paired form matching the round structure.
_IDENTITIES = [
    ("eq1", _H, _AB_PAIR, _BIT0_EXPANSION),
    ("eq2", _HX, _AB_PAIR, _X1_EXPANSION),
    ("eq3", _HH, None, _GHZ_PLUS),
    ("eq4", _HHX, None, _FLIPPED),
    ("eq5", _H, _AB_PAIR, _BIT0_EXPANSION),
    ("eq6", _HZ, _AB_PAIR, _Z1_EXPANSION),
    ("eq7", _HH, None, _GHZ_PLUS),
    ("eq8", _HHZ, None, _GHZ_MINUS),
    ("eq9", _H, _AT_PAIR, _BIT0_EXPANSION),
    ("eq10", _HX, _AT_PAIR, _X1_EXPANSION),
    ("eq11", _HH, None, _GHZ_PLUS),
    ("eq12", _HHX, None, _FLIPPED),
    ("eq13", _H, _AT_PAIR, _BIT0_EXPANSION),
    ("eq14", _HZ, _AT_PAIR, _Z1_EXPANSION),
    ("eq15", _HH, None, _GHZ_PLUS),
    ("eq16", _HHZ, None, _GHZ_MINUS),
]


def assemble_pair_single(terms, pair, single_qubit) -> StateVector:
    """Build 0.5 * sum coeff |bell>_pair |x>_single as explicit amplitudes."""
    amps = np.zeros(8, dtype=complex)
    for coeff, bell, x in terms:
        bell_vec = qsim.BELL_VECTORS[bell]
        x_vec = qsim.X_VECTORS[x]
        pair_block = bell_vec.reshape(2, 2)
        term_pair_first = np.tensordot(pair_block, x_vec, axes=0)  # axes (a, b, single)
        term = np.moveaxis(term_pair_first, (0, 1), pair)
        amps += 0.5 * coeff * term.reshape(-1)
    return StateVector(num_qubits=3, amplitudes=amps)


def assemble_computational(coeffs: dict[int, complex]) -> StateVector:
    amps = np.zeros(8, dtype=complex)
    for index, coeff in coeffs.items():
        amps[index] = coeff
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(num_qubits=3, amplitudes=amps)


def verify_identities() -> list[tuple[str, float]]:
    """Check every decomposition identity: left side built by gate
    application, right side by explicit amplitude assembly.  Returns
    (identity id, residual 1 - fidelity) pairs."""
    results = []
    for eq_id, gates, pair, rhs in _IDENTITIES:
        lhs = qsim.make_ghz()
        for gate in gates:
            lhs = qsim.apply_gate(lhs, gate, adversary.QUBIT_A)
        if pair is None:
            expected = assemble_computational(rhs)
        else:
            single = ({0, 1, 2} - set(pair)).pop()
            expected = assemble_pair_single(rhs, pair, single)
        results.append((eq_id, 1.0 - qsim.fidelity(lhs, expected)))
    return results


# --- correspondence tables --------------------------------------------------


def emit_tables() -> dict[tuple[ProtocolId, EncodingVariant], list]:
    """Exact honest-round correspondence tables for all four
    (protocol, variant) pairs."""
    return {
        (p, v): protocol.honest_correspondence_table(p, v)
        for p in ProtocolId
        for v in EncodingVariant
    }


def render_tables() -> str:
    lines = []
    for (p, v), rows in emit_tables().items():
        lines.append(f"protocol {p.value}, {v.value} encoding")
        lines.append("  announcement  measurement  bit  probability")
        for announcement, measurement, bit, prob in sorted(
            rows, key=lambda r: (r[2], r[0].name, r[1].name)
        ):
            lines.append(
                f"  {announcement.name:<12}  {measurement.name:<11}  {bit}    {prob:.4f}"
            )
        lines.append("")
    return "\n".join(lines)
