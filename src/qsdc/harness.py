"""Batch experiment driver: seeded Monte Carlo runs, exact identity
verification, correspondence tables, and machine-readable reports.

`run_experiment` samples each session's outcome-class counts from a
table built once per (protocol, variant, Trent strategy) out of the
exact branch tables."""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import adversary, protocol, qsim
from .adversary import StrategyKind, TrentStrategy
from .protocol import EncodingVariant, ProtocolId
from .qsim import BellOutcome, StateVector, XOutcome

SCHEMA_VERSION = 4

MAX_SESSIONS = 10**6  # sessions in one run; protocol.MAX_SESSION_ROUNDS caps each


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
        for name in ("check_fraction", "abort_threshold", "noise_probability"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if type(self.message_length) is not int or self.message_length < 1:
            raise ConfigError(f"message_length must be a positive integer, got {self.message_length}")
        try:
            protocol.check_round_count(self.message_length, self.check_fraction)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ConfigError(f"abort_threshold must lie in [0,1], got {self.abort_threshold}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if type(self.rounds_repeat) is not int or not 1 <= self.rounds_repeat <= MAX_SESSIONS:
            raise ConfigError(
                f"rounds_repeat must be an integer in [1, {MAX_SESSIONS}], got {self.rounds_repeat}"
            )
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
        """One row per session plus a summary row.  Sessions that share one
        SessionStats object have their cells formatted once."""
        ids = list(map(id, self.sessions))
        cells = {
            key: _csv_row([s.error_rate, int(s.aborted), s.guess_accuracy, s.z_equal_fraction])
            for key, s in dict(zip(ids, self.sessions)).items()
        }
        header = ["row", "error_rate", "aborted", "guess_accuracy", "z_equal_fraction"]
        summary = [self.bob_error_rate, self.abort_fraction, self.trent_guess_accuracy,
                   self.z_equal_fraction]
        return (
            _csv_row(header)
            + "".join(f"session_{i},{row}" for i, row in enumerate(map(cells.__getitem__, ids)))
            + _csv_row(["summary", *summary])
        )


def _csv_row(cells: list) -> str:
    """`cells` as one line of `csv.writer` output."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


_Z95 = 1.96  # two-sided 95% standard normal quantile


def binomial_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate (Brown, Cai &
    DasGupta, Statistical Science 2001).

    Unlike the normal approximation it keeps a positive width at rates 0
    and 1, where its lower or upper end is exactly 0.0 or 1.0.  No trials
    give (0.0, 0.0).
    """
    if trials == 0:
        return (0.0, 0.0)
    p = successes / trials
    z2 = _Z95**2 / trials
    center = (p + z2 / 2) / (1 + z2)
    half = _Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials)) / (1 + z2)
    low = max(0.0, center - half) if successes > 0 else 0.0
    high = min(1.0, center + half) if successes < trials else 1.0
    return (float(low), float(high))


@functools.cache
def _outcome_classes(protocol_id: ProtocolId, variant: EncodingVariant, trent: TrentStrategy) -> tuple:
    """The (bit, branch) cells of the two exact tables, a round taking one
    with probability 0.5 * p, grouped into at most eight outcome classes by
    three flags: the round decodes wrong, Trent guesses the bit, his two z
    outcomes agree.  Returns per class those flags (three arrays), its
    probability, and its cells' histogram labels with their conditional
    probabilities; cached per (protocol, variant, strategy)."""
    attacked = trent.kind is StrategyKind.ATTACK
    # (wrong, hit, z equal) -> [(probability, histogram label)] of its cells
    classes: dict[tuple[bool, bool, bool], list[tuple[float, str]]] = {}
    for bit in (0, 1):
        _, branches = protocol.round_distribution(protocol_id, variant, bit, trent)
        for b in branches:
            z_equal = attacked and b.adversary_raw[0] == b.adversary_raw[1]
            key = (b.decoded_bit != bit, b.adversary_guess == bit, z_equal)
            label = f"{b.trent_announcement.name}/{b.bob_measurement.name}"
            classes.setdefault(key, []).append((0.5 * b.probability, label))
    wrong, hit, equal = (np.array(flags) for flags in zip(*classes))
    # the probabilities sum to 1 only up to rounding
    p_class = np.array([sum(p for p, _ in members) for members in classes.values()])
    cells = []
    for members in classes.values():
        p_cell = np.array([p for p, _ in members])
        cells.append((tuple(label for _, label in members), p_cell / p_cell.sum()))
    return wrong, hit, equal, p_class / p_class.sum(), tuple(cells)


def run_experiment(config: RunConfig) -> RunReport:
    """Execute `rounds_repeat` seeded sessions and aggregate their metrics.

    Sessions count only whether a round decodes wrongly, whether Trent
    guesses its bit and whether his z outcomes agree, so they draw from
    the configuration's outcome classes (`_outcome_classes`, built once).
    One generator seeded with `config.seed` draws every session's message
    and check class counts (one multinomial), the flips of their wrong and
    correct check counts (two binomials), then the histogram (one
    multinomial per class over its cells: given its class, a round's cell
    is independent of its session and flips).  No round, message or
    `SessionPlan` is materialized, and sessions with equal counts share
    one `SessionStats`.  Same config, same report bytes.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n_message = config.message_length
    n_check = protocol.check_round_count(n_message, config.check_fraction)
    attacked = config.trent.kind is StrategyKind.ATTACK
    wrong, hit, equal, p_class, cells = _outcome_classes(config.protocol, config.variant, config.trent)

    # counts[session][role][class]; role 0 = message, 1 = check
    counts = rng.multinomial([n_message, n_check], p_class, (config.rounds_repeat, 2))
    # A flip turns a correct check round into an error and a wrong one
    # into a correct one.
    wrong_checks, q = counts[:, 1] @ wrong, config.noise_probability
    errors = wrong_checks - rng.binomial(wrong_checks, q) + rng.binomial(n_check - wrong_checks, q)
    rounds = counts.sum(axis=1)
    hits, equals = rounds @ hit, rounds @ equal

    histogram: Counter[str] = Counter()
    for (labels, p_cell), total in zip(cells, rounds.sum(axis=0).tolist()):
        for label, count in zip(labels, rng.multinomial(total, p_cell).tolist()):
            if count:
                histogram[label] += count

    n_rounds = n_message + n_check
    aborted = errors / n_check > config.abort_threshold
    rows = list(zip(errors.tolist(), aborted.tolist(), hits.tolist(), equals.tolist()))
    shared = {
        (e, a, h, z): SessionStats(
            error_rate=e / n_check,
            aborted=a,
            guess_accuracy=h / n_rounds if attacked else None,
            z_equal_fraction=z / n_rounds if attacked else None,
        )
        for e, a, h, z in set(rows)
    }
    sessions = tuple(map(shared.__getitem__, rows))
    total_rounds, check_total = n_rounds * config.rounds_repeat, n_check * config.rounds_repeat
    check_errors, guess_hits = int(errors.sum()), int(hits.sum())
    return RunReport(
        config=config.describe(),
        total_rounds=total_rounds,
        check_rounds=check_total,
        bob_error_rate=check_errors / check_total,
        bob_error_interval=binomial_interval(check_errors, check_total),
        trent_guess_accuracy=guess_hits / total_rounds if attacked else None,
        trent_guess_interval=binomial_interval(guess_hits, total_rounds) if attacked else None,
        z_equal_fraction=int(equals.sum()) / total_rounds if attacked else None,
        abort_fraction=int(np.count_nonzero(aborted)) / config.rounds_repeat,
        histogram=dict(histogram),
        sessions=sessions,
        wall_time=time.perf_counter() - start,
    )


# --- exact identity verification -------------------------------------------

_PLUS, _MINUS = XOutcome.PLUS, XOutcome.MINUS
_PHI_P, _PHI_M = BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS
_PSI_P, _PSI_M = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS

# The paper's right-hand sides per (encoding, bit): the encoded triple as
# a Bell/X expansion 0.5 * sum coeff |bell>_pair |x>_single, and the
# triple after Trent's attack gates as a computational superposition
# (index -> coeff).
_BIT0 = [(1, _PHI_P, _MINUS), (-1, _PSI_M, _MINUS), (1, _PHI_M, _PLUS), (1, _PSI_P, _PLUS)], {0: 1, 7: 1}
_X1 = [(1, _PHI_M, _MINUS), (-1, _PSI_P, _MINUS), (1, _PHI_P, _PLUS), (1, _PSI_M, _PLUS)], {4: 1, 3: 1}
_Z1 = [(1, _PHI_M, _MINUS), (1, _PSI_P, _MINUS), (1, _PHI_P, _PLUS), (-1, _PSI_M, _PLUS)], {0: 1, 7: -1}
_RIGHT_SIDES = {
    (EncodingVariant.ORIGINAL, 0): _BIT0,
    (EncodingVariant.ORIGINAL, 1): _X1,
    (EncodingVariant.REVISED, 0): _BIT0,
    (EncodingVariant.REVISED, 1): _Z1,
}


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


def _after_attack_gates(state: StateVector) -> StateVector:
    """`state` after the gate steps of Trent's attack."""
    for step in adversary.ATTACK_STEPS:
        if step[0] == "gate":
            state = qsim.apply_gate(state, step[1], step[2])
    return state


def verify_identities() -> list[tuple[str, float]]:
    """Check the paper's sixteen identities against the package's own
    round: `protocol.encode_bit` on a fresh GHZ triple, expanded over the
    pair of the Bell step in the honest `protocol.schedule` (A, B in
    protocol 1, A, T in protocol 2), and that triple after the gate steps
    of `adversary.ATTACK_STEPS`.  Right sides are assembled amplitude by
    amplitude.  eq1..eq16 run protocol 1 then 2, original then revised;
    within each, the pair form of bit 0 and 1, then the attacked form of
    bit 0 and 1.  Returns (identity id, residual 1 - fidelity) pairs."""
    results = []
    for p in ProtocolId:
        steps = protocol.schedule(p, TrentStrategy.honest())
        pair = next(step[3] for step in steps if step[0] == "measure" and step[2] == "bell")
        single = ({0, 1, 2} - set(pair)).pop()
        for v in EncodingVariant:
            lhs = [protocol.encode_bit(v, bit, qsim.make_ghz()) for bit in (0, 1)]
            lhs += [_after_attack_gates(state) for state in lhs]
            rhs = [assemble_pair_single(_RIGHT_SIDES[v, bit][0], pair, single) for bit in (0, 1)]
            rhs += [assemble_computational(_RIGHT_SIDES[v, bit][1]) for bit in (0, 1)]
            for left, right in zip(lhs, rhs):
                results.append((f"eq{len(results) + 1}", 1.0 - qsim.fidelity(left, right)))
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
