"""Round state machines for the two GHZ direct-communication protocols.

Protocol 1 routes Alice's encoded qubit to Bob: Bob Bell-measures the
(A, B) pair and Trent publishes an X-basis outcome for his qubit.
Protocol 2 routes the qubit to Trent: Trent Bell-measures (A, T) and
publishes, while Bob X-measures his own qubit.  Either way Bob combines
the announcement with his own result to decode the bit.

Each round is written once, as the step schedule `schedule(protocol,
trent)`, with Trent's steps from `adversary.trent_steps`.  The rest is
derived from it: `round_distribution` walks it exactly,
`run_round_statevector` samples it measurement by measurement, `decode`
reads Bob's rule off the honest branches, and the `qsdc tables` rows
(`honest_correspondence_table`) are the honest distribution.

Two encoding variants exist.  Both map bit 0 to a Hadamard on Alice's
qubit; the original maps bit 1 to X-then-Hadamard, the revised one to
Z-then-Hadamard (the Pauli acts first).  The decode tables coincide for
the two variants; the revision changes only relative signs, which is
exactly what blinds Trent's Z-basis attack without costing Bob anything.
"""
from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import adversary, qsim
from .adversary import QUBIT_A, QUBIT_B, AnnouncementPolicy, TrentStrategy
from .qsim import BellOutcome, Gate, StateVector, XOutcome, ZOutcome


class ProtocolId(Enum):
    PROTOCOL_1 = 1
    PROTOCOL_2 = 2


class EncodingVariant(Enum):
    ORIGINAL = "original"
    REVISED = "revised"


# bit -> ordered gate list on qubit A (applied left to right; Pauli first).
ENCODING_RULES = {
    EncodingVariant.ORIGINAL: {
        0: (Gate.HADAMARD,),
        1: (Gate.PAULI_X, Gate.HADAMARD),
    },
    EncodingVariant.REVISED: {
        0: (Gate.HADAMARD,),
        1: (Gate.PAULI_Z, Gate.HADAMARD),
    },
}

MAX_SESSION_ROUNDS = 10**8  # message plus check rounds in one session

@dataclass(frozen=True)
class RoundTranscript:
    """Complete record of one message-bit round."""

    protocol: ProtocolId
    variant: EncodingVariant
    sent_bit: int
    is_check_bit: bool
    trent_announcement: XOutcome | BellOutcome
    bob_measurement: BellOutcome | XOutcome
    decoded_bit: int
    adversary_guess: int | None = None
    adversary_raw: tuple[ZOutcome, ZOutcome] | None = None

    def __post_init__(self):
        ann_type = XOutcome if self.protocol is ProtocolId.PROTOCOL_1 else BellOutcome
        meas_type = BellOutcome if self.protocol is ProtocolId.PROTOCOL_1 else XOutcome
        if not isinstance(self.trent_announcement, ann_type):
            raise ValueError(f"{self.protocol} announces {ann_type.__name__} outcomes")
        if not isinstance(self.bob_measurement, meas_type):
            raise ValueError(f"{self.protocol} has Bob record {meas_type.__name__} outcomes")


def check_round_count(message_length: int, check_fraction: float) -> int:
    """Check rounds for `message_length` message rounds: `check_fraction` of
    all rounds, rounded, at least one.  Raises ValueError unless 0 <
    check_fraction < 1 and the session has at most MAX_SESSION_ROUNDS."""
    if not 0.0 < check_fraction < 1.0:
        raise ValueError(f"check_fraction must lie in (0,1), got {check_fraction}")
    n_check = max(1, round(message_length * check_fraction / (1.0 - check_fraction)))
    if message_length + n_check > MAX_SESSION_ROUNDS:
        raise ValueError(f"check_fraction {check_fraction} with message_length {message_length} "
                         f"plans {message_length + n_check} rounds, above {MAX_SESSION_ROUNDS}")
    return n_check


@dataclass(frozen=True, eq=False)
class SessionPlan:
    """The rounds of one session, in order: round i carries `bits[i]`
    (int8) and is a check round when `is_check[i]` (bool).  Check rounds
    sit at secret random positions among the message rounds.  Both
    arrays are read-only."""

    bits: np.ndarray
    is_check: np.ndarray

    @classmethod
    def build(cls, message_bits, check_fraction: float, rng) -> "SessionPlan":
        """Draw the check bits, then their positions, from `rng`.

        The check bits are independent uniform bits, uncorrelated with the
        message; positions are sampled without replacement so they stay
        unpredictable until revealed.  The check bits fill the check
        positions in ascending order and the message bits, a 1-D sequence
        of integers 0 and 1, fill the rest in order.
        """
        message = np.asarray(message_bits)
        if not message.size:
            raise ValueError("session needs at least one message bit")
        if message.ndim != 1 or message.dtype.kind not in "biu" or np.count_nonzero(message >> 1):
            raise ValueError("message bits must be a 1-D sequence of integers 0 and 1")
        n_check = check_round_count(message.size, check_fraction)
        total = message.size + n_check
        check_bits = rng.integers(0, 2, size=n_check)
        is_check = np.zeros(total, dtype=bool)
        is_check[rng.choice(total, size=n_check, replace=False)] = True
        bits = np.empty(total, dtype=np.int8)
        bits[np.flatnonzero(is_check)] = check_bits.astype(np.int8)
        bits[np.flatnonzero(~is_check)] = message.astype(np.int8)
        bits.flags.writeable = is_check.flags.writeable = False
        return cls(bits=bits, is_check=is_check)


def encode_bit(variant: EncodingVariant, bit: int, state: StateVector) -> StateVector:
    """Apply Alice's gate sequence for the bit to qubit A."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    for gate in ENCODING_RULES[variant][bit]:
        state = qsim.apply_gate(state, gate, QUBIT_A)
    return state


@functools.cache
def _encoded_ghz(variant: EncodingVariant, bit: int) -> StateVector:
    """The GHZ triple after Alice's encoding; fixed per (variant, bit)."""
    return encode_bit(variant, bit, qsim.make_ghz())


def schedule(protocol: ProtocolId, trent: TrentStrategy) -> tuple:
    """One round after Alice's encoding as a time-ordered step schedule
    (see qsim): Trent's attack steps, then Bob's measurement and Trent's
    announcement in the order the protocol makes them.  An attacking
    Trent's default policy is genuine in protocol 1, uniform in protocol 2.
    """
    if protocol is ProtocolId.PROTOCOL_1:
        attack, announce = adversary.trent_steps(
            trent, adversary.P1_ANNOUNCEMENT, AnnouncementPolicy.GENUINE_MEASUREMENT
        )
        return attack + (("measure", "bob", "bell", (QUBIT_A, QUBIT_B)), announce)
    attack, announce = adversary.trent_steps(
        trent, adversary.P2_ANNOUNCEMENT, AnnouncementPolicy.UNIFORM_RANDOM
    )
    return attack + (announce, ("measure", "bob", "x", (QUBIT_B,)))


@functools.cache
def _decode_map(protocol: ProtocolId) -> dict:
    """(announcement, Bob's result) -> bit, read off the honest branches
    of both encodings; raises unless single-valued and total."""
    table = {}
    steps = schedule(protocol, TrentStrategy.honest())
    for variant in EncodingVariant:
        for bit in (0, 1):
            for _, outcomes in qsim.enumerate_schedule(_encoded_ghz(variant, bit), steps):
                key = (outcomes["trent"], outcomes["bob"])
                if table.setdefault(key, bit) != bit:
                    raise ValueError(f"decode map not single-valued at {key}")
    if len(table) != 8:
        raise ValueError(f"decode map covers {len(table)} of 8 outcome pairs")
    return table


def decode(protocol: ProtocolId, announcement, measurement) -> int:
    """Bob's decode rule: the bit under which the honest round yields this
    (announcement, measurement) pair.

    The rule is the same for both encodings: the revision permutes signs
    inside the Bell/X correlation, not which pairs occur for which bit.
    """
    return _decode_map(protocol)[(announcement, measurement)]


def _outcome_fields(protocol: ProtocolId, outcomes: dict) -> dict:
    """The RoundTranscript fields a walk of the round schedule determines."""
    announcement, measurement = outcomes["trent"], outcomes["bob"]
    record = adversary.attack_record(outcomes)
    return dict(
        trent_announcement=announcement,
        bob_measurement=measurement,
        decoded_bit=decode(protocol, announcement, measurement),
        adversary_guess=None if record is None else record.guessed_bit,
        adversary_raw=None if record is None else (record.z_outcome_a, record.z_outcome_t),
    )


def run_round_statevector(
    protocol: ProtocolId,
    variant: EncodingVariant,
    bit: int,
    trent: TrentStrategy,
    rng,
    is_check_bit: bool = False,
) -> RoundTranscript:
    """Execute one full round on a fresh GHZ triple, measurement by
    measurement on the state vector.

    `run_round` draws from the exact precomputed branch distribution of
    the same round and is much faster; this path is the reference it is
    checked against.
    """
    outcomes, _ = qsim.sample_schedule(
        _encoded_ghz(variant, bit), schedule(protocol, trent), rng
    )
    return RoundTranscript(
        protocol=protocol,
        variant=variant,
        sent_bit=bit,
        is_check_bit=is_check_bit,
        **_outcome_fields(protocol, outcomes),
    )


@dataclass(frozen=True)
class RoundBranch:
    """One measurement branch of a round, with its exact Born probability."""

    probability: float
    trent_announcement: XOutcome | BellOutcome
    bob_measurement: BellOutcome | XOutcome
    decoded_bit: int
    adversary_guess: int | None
    adversary_raw: tuple[ZOutcome, ZOutcome] | None


@functools.cache
def round_distribution(
    protocol: ProtocolId, variant: EncodingVariant, bit: int, trent: TrentStrategy
) -> tuple[tuple[float, ...], tuple[RoundBranch, ...]]:
    """Cumulative probabilities and branches of one round, cached.

    Branch probabilities sum to 1 up to float rounding; the cumulative
    tuple supports bisection sampling.
    """
    branches = tuple(
        RoundBranch(probability=p, **_outcome_fields(protocol, outcomes))
        for p, outcomes in qsim.enumerate_schedule(
            _encoded_ghz(variant, bit), schedule(protocol, trent)
        )
    )
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"branch probabilities sum to {total}")
    return tuple(np.cumsum([b.probability for b in branches])), branches


def _transcript(
    protocol: ProtocolId,
    variant: EncodingVariant,
    bit: int,
    branch: RoundBranch,
    is_check_bit: bool,
    flipped: bool = False,
) -> RoundTranscript:
    """The transcript of a round that took `branch`; `flipped` inverts
    Bob's decoded bit (channel noise)."""
    return RoundTranscript(
        protocol=protocol,
        variant=variant,
        sent_bit=bit,
        is_check_bit=is_check_bit,
        trent_announcement=branch.trent_announcement,
        bob_measurement=branch.bob_measurement,
        decoded_bit=1 - branch.decoded_bit if flipped else branch.decoded_bit,
        adversary_guess=branch.adversary_guess,
        adversary_raw=branch.adversary_raw,
    )


def run_round(
    protocol: ProtocolId,
    variant: EncodingVariant,
    bit: int,
    trent: TrentStrategy,
    rng,
    is_check_bit: bool = False,
) -> RoundTranscript:
    """Execute one full round on a fresh GHZ triple.

    Samples the round's exact joint outcome distribution, precomputed once
    per (protocol, variant, bit, strategy) by enumerating every measurement
    branch of the state vector, with one `rng.random()`.  Distributionally
    identical to `run_round_statevector` and about ten times faster;
    `run_session` samples a whole session from the same tables at a small
    fraction of this per-round cost.
    """
    cumulative, branches = round_distribution(protocol, variant, bit, trent)
    branch = branches[min(bisect_right(cumulative, rng.random()), len(branches) - 1)]
    return _transcript(protocol, variant, bit, branch, is_check_bit)


def run_session(
    protocol: ProtocolId,
    variant: EncodingVariant,
    plan: SessionPlan,
    trent: TrentStrategy,
    rng,
    abort_threshold: float = 0.02,
    noise_probability: float = 0.0,
) -> tuple[list[RoundTranscript], float, bool]:
    """Play out the plan's rounds and evaluate the check-bit error rate.

    All rounds are sampled at once: one `rng.random(n)` for the n rounds'
    branches, each picked from its bit's exact table as `run_round` does,
    then, only when `noise_probability` > 0, one `rng.random(n)` for the
    noise.  `noise_probability` is an optional classical channel-noise
    knob: each decoded bit is independently flipped with that probability,
    exercising the abort path without touching the quantum model.  Rounds
    with the same bit, branch, check flag and flip share one transcript.
    A plan without check rounds is rejected: it would pass unchecked.
    """
    if plan.bits.shape != plan.is_check.shape:
        raise ValueError(f"plan has {plan.bits.size} bits but {plan.is_check.size} check flags")
    if not plan.is_check.any():
        raise ValueError("session plan has no check rounds")
    if not np.isin(plan.bits, (0, 1)).all():
        raise ValueError("session plan bits must be 0 or 1")

    n = plan.bits.size
    uniforms = rng.random(n)
    flipped = rng.random(n) < noise_probability if noise_probability > 0.0 else np.zeros(n, bool)
    bits = plan.bits.astype(np.intp)
    tables = [round_distribution(protocol, variant, bit, trent) for bit in (0, 1)]
    branch = np.empty(n, dtype=np.intp)
    for bit, (cumulative, branches) in enumerate(tables):
        rounds = bits == bit
        picked = np.searchsorted(cumulative, uniforms[rounds], side="right")
        branch[rounds] = np.minimum(picked, len(branches) - 1)

    # One transcript per distinct (bit, branch, is_check, flipped).
    width = max(len(branches) for _, branches in tables)
    key = ((bits * width + branch) * 2 + plan.is_check) * 2 + flipped
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    shared = [
        _transcript(protocol, variant, bit, tables[bit][1][b], check, flip)
        for bit, b, check, flip in zip(
            bits[first].tolist(), branch[first].tolist(),
            plan.is_check[first].tolist(), flipped[first].tolist(),
        )
    ]
    transcripts = [shared[i] for i in inverse.tolist()]

    errors = sum(
        count for t, count in zip(shared, counts.tolist())
        if t.is_check_bit and t.decoded_bit != t.sent_bit
    )
    error_rate = errors / np.count_nonzero(plan.is_check)
    abort = error_rate > abort_threshold
    return transcripts, error_rate, abort


def extract_message(transcripts: list[RoundTranscript], abort: bool) -> list[int] | None:
    """Bob's decoded message bits, available only when the session passed."""
    if abort:
        return None
    return [t.decoded_bit for t in transcripts if not t.is_check_bit]


def honest_correspondence_table(
    protocol: ProtocolId, variant: EncodingVariant
) -> list[tuple[object, object, int, float]]:
    """Exact Born-probability rows of honest rounds, read off
    `round_distribution`.

    Returns (announcement, bob_measurement, bit, probability) rows for every
    outcome pair with nonzero probability.  Raises if the induced decode map
    is not single-valued.
    """
    honest = TrentStrategy.honest()
    return [
        (b.trent_announcement, b.bob_measurement, bit, b.probability)
        for bit in (0, 1)
        for b in round_distribution(protocol, variant, bit, honest)[1]
    ]
