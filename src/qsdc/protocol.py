"""Round state machines for the two GHZ direct-communication protocols.

Protocol 1 routes Alice's encoded qubit to Bob: Bob Bell-measures the
(A, B) pair and Trent publishes an X-basis outcome for his qubit.
Protocol 2 routes the qubit to Trent: Trent Bell-measures (A, T) and
publishes, while Bob X-measures his own qubit.  Either way Bob combines
the announcement with his own result to decode the bit.

Each round is written once, as the step schedule `schedule(protocol,
trent)`, with Trent's steps from `adversary.trent_steps`.  The rest is
derived from it.  Once per (protocol, variant, bit, strategy) its exact
branch tree (`qsim.schedule_tree`) is built and flattened once into one
record: the branches and their cumulative probabilities, which
`round_distribution` returns, each leaf's branch by path, and each
branch's four transcripts: a message or a check round, its decoded bit
as measured or flipped by channel noise.  `run_round_statevector` walks
the tree, `run_round` and `run_session` draw from the cumulative table,
and all three only pick the branch's shared transcripts by index.
`decode` reads Bob's rule off the same flattening of the honest
rounds, and the `qsdc tables` rows (`honest_correspondence_table`)
are the honest distribution.

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
from typing import NamedTuple

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
def _walked_tree(
    protocol: ProtocolId, variant: EncodingVariant, bit: int, trent: TrentStrategy
) -> tuple[qsim.TreeNode, list]:
    """The round's exact branch tree and its one flattening
    (`qsim.tree_branches`), cached per (protocol, variant, bit, strategy)."""
    tree = qsim.schedule_tree(encode_bit(variant, bit, qsim.make_ghz()), schedule(protocol, trent))
    return tree, qsim.tree_branches(tree)


@functools.cache
def _decode_map(protocol: ProtocolId) -> dict:
    """(announcement, Bob's result) -> bit, read off the honest branches
    of both encodings; raises unless single-valued and total."""
    table = {}
    for variant in EncodingVariant:
        for bit in (0, 1):
            for _, outcomes, _ in _walked_tree(protocol, variant, bit, TrentStrategy.honest())[1]:
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


@dataclass(frozen=True)
class RoundBranch:
    """One measurement branch of a round, with its exact Born probability."""

    probability: float
    trent_announcement: XOutcome | BellOutcome
    bob_measurement: BellOutcome | XOutcome
    decoded_bit: int
    adversary_guess: int | None
    adversary_raw: tuple[ZOutcome, ZOutcome] | None


class _Round(NamedTuple):
    """One round configuration, built once from its exact branch tree."""

    tree: qsim.TreeNode
    cumulative: tuple[float, ...]  # running sums of the branch probabilities
    branches: tuple[RoundBranch, ...]  # in `qsim.tree_branches` order
    branch_of: dict  # leaf path (as `qsim.sample_tree` returns it) -> branch index
    # each branch's four RoundTranscripts, at 4 * branch + 2 * is_check + flipped;
    # a flipped one has its decoded bit inverted by channel noise
    transcripts: tuple
    check_error: np.ndarray  # per transcript: a check round that decodes wrong


@functools.cache
def _round(protocol: ProtocolId, variant: EncodingVariant, bit: int, trent: TrentStrategy) -> _Round:
    """The round's record, cached per (protocol, variant, bit, strategy);
    raises unless the branches sum to 1."""
    tree, walked = _walked_tree(protocol, variant, bit, trent)
    branches, transcripts = [], []
    for p, outcomes, _ in walked:
        announcement, measurement = outcomes["trent"], outcomes["bob"]
        record = adversary.attack_record(outcomes)
        decoded = decode(protocol, announcement, measurement)
        fields = dict(
            trent_announcement=announcement,
            bob_measurement=measurement,
            adversary_guess=None if record is None else record.guessed_bit,
            adversary_raw=None if record is None else (record.z_outcome_a, record.z_outcome_t),
        )
        branches.append(RoundBranch(probability=p, decoded_bit=decoded, **fields))
        transcripts += [
            RoundTranscript(protocol=protocol, variant=variant, sent_bit=bit, is_check_bit=check,
                            decoded_bit=decoded ^ flip, **fields)
            for check in (False, True)
            for flip in (0, 1)
        ]
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"branch probabilities sum to {total}")
    return _Round(
        tree=tree,
        cumulative=tuple(np.cumsum([b.probability for b in branches])),
        branches=tuple(branches),
        branch_of={path: index for index, (_, _, path) in enumerate(walked)},
        transcripts=tuple(transcripts),
        check_error=np.array([t.is_check_bit and t.decoded_bit != bit for t in transcripts]),
    )


def round_distribution(
    protocol: ProtocolId, variant: EncodingVariant, bit: int, trent: TrentStrategy
) -> tuple[tuple[float, ...], tuple[RoundBranch, ...]]:
    """Cumulative probabilities and branches of one round: one branch per
    leaf of the round's tree.

    Branch probabilities sum to 1 up to float rounding; the cumulative
    tuple supports bisection sampling.
    """
    record = _round(protocol, variant, bit, trent)
    return record.cumulative, record.branches


def run_round_statevector(
    protocol: ProtocolId,
    variant: EncodingVariant,
    bit: int,
    trent: TrentStrategy,
    rng,
    is_check_bit: bool = False,
) -> RoundTranscript:
    """Execute one full round on a fresh GHZ triple by walking the
    round's state-vector branch tree.

    Each measurement on the way draws one `rng.random()` against the
    Born probabilities of the state it measures, each random step one
    `rng.integers`, in time order, exactly as `qsim.sample_schedule`
    does.  The tree and the two transcripts of every branch are built
    once per (protocol, variant, bit, strategy), so a round runs no gate
    and no projection and builds no transcript.  This is the reference
    `run_round` is checked against.
    """
    record = _round(protocol, variant, bit, trent)
    path, _ = qsim.sample_tree(record.tree, rng)
    return record.transcripts[4 * record.branch_of[path] + 2 * bool(is_check_bit)]


def run_round(
    protocol: ProtocolId,
    variant: EncodingVariant,
    bit: int,
    trent: TrentStrategy,
    rng,
    is_check_bit: bool = False,
) -> RoundTranscript:
    """Execute one full round on a fresh GHZ triple.

    Samples the round's exact joint outcome distribution (see
    `round_distribution`) with one `rng.random()` and returns the
    branch's shared transcript, the one `run_round_statevector` returns
    for it.  `run_round_statevector` walks the same tree with one draw
    per measurement instead: the two are distributionally identical and
    cost about the same per round.  `run_session` samples a whole
    session from the same tables at a small fraction of this cost.
    """
    record = _round(protocol, variant, bit, trent)
    branch = min(bisect_right(record.cumulative, rng.random()), len(record.branches) - 1)
    return record.transcripts[4 * branch + 2 * bool(is_check_bit)]


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
    exercising the abort path without touching the quantum model.  Every
    round returns one of the four transcripts its branch's cached record
    holds (message or check, each unflipped or flipped), the unflipped
    ones being those `run_round` returns, so a session builds none.
    A plan without check rounds is rejected, since it would pass
    unchecked, and so is a rate outside [0, 1]: a NaN threshold too.
    """
    if plan.bits.shape != plan.is_check.shape:
        raise ValueError(f"plan has {plan.bits.size} bits but {plan.is_check.size} check flags")
    if not plan.is_check.any():
        raise ValueError("session plan has no check rounds")
    if not np.isin(plan.bits, (0, 1)).all():
        raise ValueError("session plan bits must be 0 or 1")
    for name, rate in (("noise_probability", noise_probability), ("abort_threshold", abort_threshold)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must lie in [0,1], got {rate}")

    n = plan.bits.size
    uniforms = rng.random(n)
    flipped = rng.random(n) < noise_probability if noise_probability > 0.0 else np.zeros(n, bool)
    # Each round's transcript index in the two bits' tables laid end to end.
    index = 2 * plan.is_check + flipped
    table, check_error = (), []
    for bit in (0, 1):
        record = _round(protocol, variant, bit, trent)
        rounds = plan.bits == bit
        branch = np.searchsorted(record.cumulative, uniforms[rounds], side="right")
        index[rounds] += len(table) + 4 * np.minimum(branch, len(record.branches) - 1)
        table += record.transcripts
        check_error.append(record.check_error)
    transcripts = list(map(table.__getitem__, index.tolist()))
    error_rate = np.count_nonzero(np.concatenate(check_error)[index]) / np.count_nonzero(plan.is_check)
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
