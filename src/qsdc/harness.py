"""Batch experiment driver: seeded Monte Carlo runs, exact identity
verification, correspondence tables, and machine-readable reports.

`run_experiment` samples each session's outcome-class counts from the
configuration's cached model (`protocol._model`), which every round
sampler also reads; its report keeps each session's counts in one array."""
from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from . import adversary, protocol, qsim
from .adversary import StrategyKind, TrentStrategy
from .protocol import MAX_SESSION_ROUNDS, EncodingVariant, ProtocolId
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
        try:
            protocol.check_config(self.protocol, self.variant, self.trent)
            checked = {
                "message_length": qsim.check_integer("message_length", self.message_length, 1, MAX_SESSION_ROUNDS),
                "check_fraction": protocol.check_rate("check_fraction", self.check_fraction),
                "abort_threshold": protocol.check_rate("abort_threshold", self.abort_threshold),
                "seed": qsim.check_integer("seed", self.seed, 0, 2**64 - 1),
                "rounds_repeat": qsim.check_integer("rounds_repeat", self.rounds_repeat, 1, MAX_SESSIONS),
                "noise_probability": protocol.check_rate("noise_probability", self.noise_probability),
            }
            protocol.check_round_count(checked["message_length"], checked["check_fraction"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output_format must be 'json' or 'csv', got {self.output_format!r}")

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
    # one row per session: check errors, aborted (0 or 1), Trent's hits, z-equal rounds
    session_counts: np.ndarray = field(compare=False, repr=False)
    wall_time: float = field(compare=False)

    def _columns(self) -> list[tuple[int | None, bool]]:
        """Each CSV column's rule, in `session_counts` column order: the divisor that
        makes its count a rate (None for the abort flag, printed as its 0 or 1) and
        whether the report prints it; an honest one leaves Trent's, the last two, empty."""
        n = len(self.session_counts)
        attacked = self.trent_guess_accuracy is not None
        n_check, n_rounds = self.check_rounds // n, self.total_rounds // n
        return [(n_check, True), (None, True), (n_rounds, attacked), (n_rounds, attacked)]

    @functools.cached_property
    def sessions(self) -> tuple[SessionStats, ...]:
        """Each session's rates, built from `session_counts` on first read."""
        columns = [counts if d is None else [c / d for c in counts] if printed else [None] * len(counts)
                   for counts, (d, printed) in zip(self.session_counts.T.tolist(), self._columns())]
        return tuple(SessionStats(e, bool(a), g, z) for e, a, g, z in zip(*columns))

    def to_json(self, include_timing: bool = False) -> str:
        """`schema_version`, then every field in declaration order except
        `session_counts`, which only the CSV holds; the histogram is
        key-sorted.  `wall_time` is left out unless `include_timing`, so
        that identical configs produce byte-identical reports."""
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update((name, getattr(self, name)) for name in _JSON_FIELDS)
        payload["histogram"] = dict(sorted(self.histogram.items()))
        if not include_timing:
            del payload["wall_time"]
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        """A header row, one `session_<i>` row per session, then a summary row.

        The session rows are written column by column, by the rules of
        `_columns`: each printed rate column is deduplicated and its
        distinct rates formatted once, the 0 or 1 abort flag indexes
        `_FLAG_CELLS`, and the unprinted columns' empty cells are one
        constant written with the newline.  All rows are then laid out in
        one array of fixed-width byte records: `session_`, the index digits,
        each printed cell picked through its index, the empty cells and a
        newline.  Records are NUL-padded; no cell holds a NUL, so dropping
        them all leaves the CSV bytes, which are decoded once."""
        n = len(self.session_counts)
        picked = []  # (cells, index into them) per printed column
        for counts, (divisor, printed) in zip(self.session_counts.T, self._columns()):
            if divisor is None:
                picked.append((_FLAG_CELLS, counts))
            elif printed:
                unique, inverse = np.unique(counts, return_inverse=True)
                picked.append((np.array([b"," + str(c / divisor).encode() for c in unique.tolist()]), inverse))
        # the unprinted columns are the last ones
        end = b"," * (len(self.session_counts.T) - len(picked)) + b"\n"
        digits = len(str(n - 1))
        columns = [(str(k), cells.dtype) for k, (cells, _) in enumerate(picked)]
        rows = np.zeros(n, [("prefix", "S8"), ("label", np.uint8, (digits,)), *columns, ("end", f"S{len(end)}")])
        rows["prefix"] = b"session_"
        for k in range(digits):
            # the k-th digit runs through 0-9 in runs of `power`; in the
            # first `power` labels it is a leading zero, written as a NUL
            power = 10 ** (digits - 1 - k)
            cycle = np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), power)
            rows["label"][:, k] = np.tile(cycle, n // len(cycle) + 1)[:n]
            if power > 1:
                rows["label"][:power, k] = 0
        for (name, _), (cells, index) in zip(columns, picked):
            rows[name] = cells[index]
        rows["end"] = end
        header = ["row", "error_rate", "aborted", "guess_accuracy", "z_equal_fraction"]
        summary = [self.bob_error_rate, self.abort_fraction, self.trent_guess_accuracy, self.z_equal_fraction]
        body = rows.tobytes().translate(None, b"\0").decode("ascii")
        return _csv_row(header) + body + _csv_row(["summary", *summary])


_JSON_FIELDS = tuple(f.name for f in fields(RunReport) if f.name != "session_counts")


def _csv_row(cells: list) -> str:
    """`cells` as one CSV line: `None` an empty cell, any other `str(cell)`; none needs quotes."""
    return ",".join("" if cell is None else str(cell) for cell in cells) + "\n"


_FLAG_CELLS = np.array([b",0", b",1"])  # the abort flag's cells, indexed by the flag


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


def run_experiment(config: RunConfig) -> RunReport:
    """Execute `rounds_repeat` seeded sessions and aggregate their metrics.

    Sessions count only whether a round decodes wrongly, whether Trent
    guesses its bit and whether his z outcomes agree, so they draw from
    the outcome classes of the configuration's model (`protocol._model`).
    One generator seeded with `config.seed` draws every session's message
    and check class counts (one multinomial), the flips of their wrong and
    correct check counts (two binomials), then the histogram (one
    multinomial per class over its cells: given its class, a round's cell
    is independent of its session and flips).  No round, message,
    `SessionPlan` or `SessionStats` is made.  Same config, same report bytes.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n_message = config.message_length
    n_check = protocol.check_round_count(n_message, config.check_fraction)
    attacked = config.trent.kind is StrategyKind.ATTACK
    wrong, hit, equal, p_class, cells = protocol._model(config.protocol, config.variant, config.trent).classes

    # counts[session][role][class]; role 0 = message, 1 = check
    counts = rng.multinomial([n_message, n_check], p_class, (config.rounds_repeat, 2))
    # A flip turns a correct check round into an error and a wrong one
    # into a correct one.
    wrong_checks, q = counts[:, 1] @ wrong, config.noise_probability
    errors = wrong_checks - rng.binomial(wrong_checks, q) + rng.binomial(n_check - wrong_checks, q)
    rounds = counts[:, 0] + counts[:, 1]

    histogram: Counter[str] = Counter()
    for (labels, p_cell), total in zip(cells, rounds.sum(axis=0).tolist()):
        for label, count in zip(labels, rng.multinomial(total, p_cell).tolist()):
            if count:
                histogram[label] += count

    session_counts = np.empty((config.rounds_repeat, 4), np.int64)
    session_counts[:, 0], session_counts[:, 1] = errors, errors / n_check > config.abort_threshold
    session_counts[:, 2], session_counts[:, 3] = rounds @ hit, rounds @ equal
    session_counts.setflags(write=False)
    total_rounds, check_total = (n_message + n_check) * config.rounds_repeat, n_check * config.rounds_repeat
    check_errors, aborts, guess_hits, z_equal = session_counts.sum(axis=0).tolist()
    return RunReport(
        config=config.describe(),
        total_rounds=total_rounds,
        check_rounds=check_total,
        bob_error_rate=check_errors / check_total,
        bob_error_interval=binomial_interval(check_errors, check_total),
        trent_guess_accuracy=guess_hits / total_rounds if attacked else None,
        trent_guess_interval=binomial_interval(guess_hits, total_rounds) if attacked else None,
        z_equal_fraction=z_equal / total_rounds if attacked else None,
        abort_fraction=aborts / config.rounds_repeat,
        histogram=dict(histogram),
        session_counts=session_counts,
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
    axes = np.argsort((*pair, single_qubit))  # outer product axes (a, b, single) to qubits
    for coeff, bell, x in terms:
        term = np.multiply.outer(qsim.BELL_VECTORS[bell].reshape(2, 2), qsim.X_VECTORS[x])
        amps += 0.5 * coeff * term.transpose(axes).reshape(-1)
    return StateVector(num_qubits=3, amplitudes=amps)


def assemble_computational(coeffs: dict[int, complex]) -> StateVector:
    amps = np.zeros(8, dtype=complex)
    for index, coeff in coeffs.items():
        amps[index] = coeff
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(num_qubits=3, amplitudes=amps)


@functools.cache
def _right_side(variant: EncodingVariant, bit: int, pair: tuple, single: int) -> tuple:
    """The paper's pair and attacked forms of one encoded triple, assembled once per Bell pair."""
    terms, coeffs = _RIGHT_SIDES[variant, bit]
    return assemble_pair_single(terms, pair, single), assemble_computational(coeffs)


def verify_identities() -> list[tuple[str, float]]:
    """Check the paper's sixteen identities against the package's own
    round: `protocol.encode_bit` on one GHZ triple, expanded over the pair
    of the Bell step in the honest `protocol.schedule` (A, B in protocol
    1, A, T in protocol 2), and that triple after the gate steps of
    `adversary.ATTACK_STEPS`, each built once per call; the right sides
    are assembled once (`_right_side`).  eq1..eq16 run protocol 1 then 2,
    original then revised; within each, the pair form of bit 0 and 1, then
    the attacked form of bit 0 and 1.  Returns (id, residual 1 - fidelity)."""
    ghz = qsim.make_ghz()
    # per variant: bits 0 and 1 encoded, then both after the attack's gates
    lhs = {v: [protocol.encode_bit(v, bit, ghz) for bit in (0, 1)] * 2 for v in EncodingVariant}
    for _, gate, qubit in (step for step in adversary.ATTACK_STEPS if step[0] == "gate"):
        for states in lhs.values():
            states[2:] = [qsim.apply_gate(state, gate, qubit) for state in states[2:]]
    results = []
    for p in ProtocolId:
        steps = protocol.schedule(p, TrentStrategy.honest())
        pair = next(step[3] for step in steps if step[0] == "measure" and step[2] == "bell")
        single = ({0, 1, 2} - set(pair)).pop()
        for v in EncodingVariant:
            pair_forms, attacked_forms = zip(*(_right_side(v, bit, pair, single) for bit in (0, 1)))
            for left, right in zip(lhs[v], pair_forms + attacked_forms):
                results.append((f"eq{len(results) + 1}", 1.0 - qsim.fidelity(left, right)))
    return results


# --- correspondence tables --------------------------------------------------


def emit_tables() -> dict[tuple[ProtocolId, EncodingVariant], list]:
    """Exact honest-round correspondence tables for all four
    (protocol, variant) pairs, read off `protocol.round_distribution`:
    an (announcement, bob_measurement, bit, probability) row per branch,
    that is, per outcome pair of nonzero probability."""
    honest = TrentStrategy.honest()
    return {
        (p, v): [
            (b.transcript.trent_announcement, b.transcript.bob_measurement, bit, b.probability)
            for bit in (0, 1)
            for b in protocol.round_distribution(p, v, bit, honest)[1]
        ]
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
