"""Round state machines for the two GHZ direct-communication protocols.

Protocol 1 routes Alice's encoded qubit to Bob: Bob Bell-measures the
(A, B) pair and Trent publishes an X-basis outcome for his qubit.
Protocol 2 routes the qubit to Trent: Trent Bell-measures (A, T) and
publishes, while Bob X-measures his own qubit.  Either way Bob combines
the announcement with his own result to decode the bit.

Each round is written once, as the step schedule `schedule(protocol,
trent)`, with Trent's steps from `adversary.trent_steps`; the rest is
derived from it.  Per (protocol, variant, bit, strategy) one pass of
`qsim.schedule_branches` lists the round's exact branches and builds
their walk table, and both bits make one cached model per (protocol,
variant, strategy): per bit the walk table, its depth, the branches and
a one-level walk table over them, which holds their cumulative
probabilities (`round_distribution`); every transcript, four per branch
(message or check round, decoded bit as measured or flipped by noise);
and the outcome classes `harness.run_experiment` draws from.  The
samplers only draw a branch and pick its shared transcript by index:
`run_round_statevector` walks the round's table and `run_round` the
one-level one, both with `qsim.walk`; `run_session` reads all rounds'
branches at once from a guide table over the one-level sums, cached in the
model, which takes each uniform to the same branch without a search.
`decode` reads Bob's rule off the honest branches, whose rows
`harness.emit_tables` prints.

Two encoding variants exist.  Both map bit 0 to a Hadamard on Alice's
qubit; the original maps bit 1 to X-then-Hadamard, the revised one to
Z-then-Hadamard (the Pauli acts first).  The decode tables coincide for
the two variants; the revision changes only relative signs, which is
exactly what blinds Trent's Z-basis attack without costing Bob anything.
"""
from __future__ import annotations

import functools
import numbers
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

    # members are singletons compared by identity; Enum.__hash__ runs in
    # Python on every model-cache lookup
    __hash__ = object.__hash__


class EncodingVariant(Enum):
    ORIGINAL = "original"
    REVISED = "revised"

    __hash__ = object.__hash__


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
# buckets per bit of `run_session`'s guide table: a power of two, so u * K
# is exact and so is every bucket edge j / K
GUIDE_BUCKETS = 64

@dataclass(frozen=True)
class RoundTranscript:
    """Complete record of one round, a message or a check round."""

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
        # raises unless the protocol's honest round yields this outcome pair
        decode(self.protocol, self.trent_announcement, self.bob_measurement)


def check_rate(name: str, value: float) -> float:
    """`value` as a plain int or float; raises ValueError unless a real number, not a bool, in [0, 1]."""
    if type(value) is not float:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return value


def check_round_count(message_length: int, check_fraction: float) -> int:
    """Check rounds for `message_length` message rounds: `check_fraction` of
    all rounds, rounded, at least one.  Raises ValueError unless 0 <
    check_fraction < 1 and the session has at most MAX_SESSION_ROUNDS."""
    check_fraction = check_rate("check_fraction", check_fraction)
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


def _check_bit(bit: int) -> int:
    # the model's per-bit fields are pairs indexed by bit: -1 would read bit 1's
    if not (type(bit) is int or isinstance(bit, (numbers.Integral, np.bool_))) or bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return int(bit)


def encode_bit(variant: EncodingVariant, bit: int, state: StateVector) -> StateVector:
    """Apply Alice's gate sequence for the bit to qubit A."""
    qsim.check_member("variant", variant, EncodingVariant)
    bit = _check_bit(bit)
    for gate in ENCODING_RULES[variant][bit]:
        state = qsim.apply_gate(state, gate, QUBIT_A)
    return state


def schedule(protocol: ProtocolId, trent: TrentStrategy) -> tuple:
    """One round after Alice's encoding as a time-ordered step schedule
    (see qsim): Trent's attack steps, then Bob's measurement and Trent's
    announcement in the order the protocol makes them.  An attacking
    Trent's default policy is genuine in protocol 1, uniform in protocol 2.
    """
    qsim.check_member("protocol", protocol, ProtocolId)
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
def _round_branches(
    protocol: ProtocolId, variant: EncodingVariant, bit: int, trent: TrentStrategy
) -> tuple[list, object]:
    """The round's exact branches and their walk table
    (`qsim.schedule_branches`), cached per (protocol, variant, bit, strategy)."""
    return qsim.schedule_branches(encode_bit(variant, bit, qsim.make_ghz()), schedule(protocol, trent))


@functools.cache
def _decode_map(protocol: ProtocolId) -> dict:
    """(announcement, Bob's result) -> bit, read off the honest branches
    of both encodings; raises unless single-valued and total."""
    table = {}
    for variant in EncodingVariant:
        for bit in (0, 1):
            for _, outcomes, _ in _round_branches(protocol, variant, bit, TrentStrategy.honest())[0]:
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
    A protocol that is not a ProtocolId, or a pair no honest round of it
    yields, raises ValueError.
    """
    qsim.check_member("protocol", protocol, ProtocolId)
    table = _decode_map(protocol)
    try:
        return table[(announcement, measurement)]
    except (KeyError, TypeError):  # a TypeError for an unhashable outcome
        raise ValueError(f"no honest round of {protocol} announces {announcement} "
                         f"with Bob measuring {measurement}") from None


@dataclass(frozen=True)
class RoundBranch:
    """One measurement branch of a round: its exact Born probability and
    its message-round transcript, the one `run_round` and
    `run_round_statevector` return for it."""

    probability: float
    transcript: RoundTranscript


class _Model(NamedTuple):
    """One (protocol, variant, strategy) configuration, built once from the
    exact branches of both bits; a "per bit" field is indexed by bit."""

    walks: tuple  # per bit: (the round's walk table, whose leaves are branch indices, its depth)
    # per bit: the one-level walk table over the branches, (running sums of
    # their probabilities, 1.0, branch indices padded with the last)
    joint: tuple
    # `run_session`'s guide table over both bits' running sums, as read-only
    # arrays (guide, inner, first); see `_first_transcripts`
    lookup: tuple
    branches: tuple  # per bit: its RoundBranches, in `qsim.schedule_branches` order
    offset: tuple  # per bit: index of its first transcript
    # both bits' RoundTranscripts end to end in a read-only object array, each
    # branch's four at offset[bit] + 4 * branch + 2 * is_check + flipped
    transcripts: np.ndarray
    check_error: np.ndarray  # per transcript: a check round that decodes wrong
    # `harness.run_experiment`'s outcome classes: the (bit, branch) cells, of
    # probability 0.5 * p, grouped by three flags (the round decodes wrong,
    # Trent guesses the bit, his two z outcomes agree).  Per class: the flags
    # (three arrays), its probability, its cells' labels and conditional ones.
    classes: tuple


def _guide_table(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per bucket j of [0, 1), K = GUIDE_BUCKETS: the count of the
    ascending `sums` at or below j / K, and the one sum strictly inside
    (j / K, (j + 1) / K), or 2.0 when there is none.  Raises when a bucket
    holds two sums, whose order one comparison could not tell."""
    scaled = sums * GUIDE_BUCKETS
    inside = (sums < 1.0) & (scaled != np.floor(scaled))
    buckets = scaled[inside].astype(np.intp)
    # ascending; not np.unique, whose first call imports numpy.ma (8 ms and 1.7 MiB, numpy 2.4)
    if (buckets[1:] == buckets[:-1]).any():
        raise AssertionError(f"two running sums share a 1/{GUIDE_BUCKETS} guide bucket")
    inner = np.full(GUIDE_BUCKETS, 2.0)
    inner[buckets] = sums[inside]
    return np.searchsorted(sums, np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS, side="right"), inner


@functools.cache
def _model(protocol: ProtocolId, variant: EncodingVariant, trent: TrentStrategy) -> _Model:
    """The configuration's record, cached per (protocol, variant, strategy);
    raises unless each bit's branches sum to 1 and no open guide bucket
    (j/K, (j+1)/K) holds two of a bit's running sums."""
    walks, joint, branches, offset, transcripts = [], [], [], [], []
    guide, inner, first = [], [], []
    # (wrong, hit, z equal) -> [(probability, histogram label)] of its cells,
    # bit 0's cells first
    classes: dict[tuple[bool, bool, bool], list[tuple[float, str]]] = {}
    for bit in (0, 1):
        walked, table = _round_branches(protocol, variant, bit, trent)
        offset.append(len(transcripts))
        bit_branches = []
        for p, outcomes, _ in walked:
            announcement, measurement = outcomes["trent"], outcomes["bob"]
            record = adversary.attack_record(outcomes)
            decoded = decode(protocol, announcement, measurement)
            guess = None if record is None else record.guessed_bit
            raw = None if record is None else (record.z_outcome_a, record.z_outcome_t)
            transcripts += [
                RoundTranscript(protocol=protocol, variant=variant, sent_bit=bit, is_check_bit=check,
                                trent_announcement=announcement, bob_measurement=measurement,
                                decoded_bit=decoded ^ flip, adversary_guess=guess, adversary_raw=raw)
                for check in (False, True)
                for flip in (0, 1)
            ]
            bit_branches.append(RoundBranch(probability=p, transcript=transcripts[-4]))
            z_equal = record is not None and record.z_outcome_a == record.z_outcome_t
            key = (decoded != bit, guess == bit, z_equal)
            classes.setdefault(key, []).append((0.5 * p, f"{announcement.name}/{measurement.name}"))
        total = sum(b.probability for b in bit_branches)
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"branch probabilities sum to {total}")
        walks.append((table, qsim.schedule_depth(schedule(protocol, trent))))
        kids = tuple(range(len(bit_branches)))
        joint.append((tuple(np.cumsum([b.probability for b in bit_branches])), 1.0, kids + kids[-1:]))
        below, bit_inner = _guide_table(np.array(joint[-1][0]))
        guide.append(len(first) + below)
        inner.append(bit_inner)
        first += [offset[-1] + 4 * kid for kid in kids + kids[-1:]]
        branches.append(tuple(bit_branches))
    wrong, hit, equal = (qsim._read_only(np.array(flags)) for flags in zip(*classes))
    # the probabilities sum to 1 only up to rounding
    p_class = np.array([sum(p for p, _ in members) for members in classes.values()])
    cells = []
    for members in classes.values():
        p_cell = np.array([p for p, _ in members])
        cells.append((tuple(label for _, label in members), qsim._read_only(p_cell / p_cell.sum())))
    return _Model(
        walks=tuple(walks),
        joint=tuple(joint),
        lookup=(qsim._read_only(np.concatenate(guide)), qsim._read_only(np.concatenate(inner)),
                qsim._read_only(np.array(first))),
        branches=tuple(branches),
        offset=tuple(offset),
        transcripts=qsim._read_only(np.array(transcripts, dtype=object)),
        check_error=qsim._read_only(
            np.array([t.is_check_bit and t.decoded_bit != t.sent_bit for t in transcripts])),
        classes=(wrong, hit, equal, qsim._read_only(p_class / p_class.sum()), tuple(cells)),
    )


def check_config(protocol: ProtocolId, variant: EncodingVariant, trent: TrentStrategy) -> None:
    """Raise ValueError for the first malformed one of `variant`, `protocol`, `trent`: a round's order."""
    qsim.check_member("variant", variant, EncodingVariant)
    qsim.check_member("protocol", protocol, ProtocolId)
    adversary.check_strategy(trent)


def _checked_model(protocol: ProtocolId, variant: EncodingVariant, trent: TrentStrategy) -> _Model:
    """`_model`, but an unhashable argument raises the ValueError that
    `check_config` gives for it; checked only when the lookup fails."""
    try:
        return _model(protocol, variant, trent)
    except TypeError:
        check_config(protocol, variant, trent)
        raise


def round_distribution(
    protocol: ProtocolId, variant: EncodingVariant, bit: int, trent: TrentStrategy
) -> tuple[tuple[float, ...], tuple[RoundBranch, ...]]:
    """Cumulative probabilities and branches of one round: one branch per
    leaf of the round's walk table.

    Branch probabilities sum to 1 up to float rounding; the cumulative
    tuple is the one `run_round` walks.
    """
    bit = _check_bit(bit)
    model = _checked_model(protocol, variant, trent)
    return model.joint[bit][0], model.branches[bit]


def run_round_statevector(
    protocol: ProtocolId,
    variant: EncodingVariant,
    bit: int,
    trent: TrentStrategy,
    rng,
    is_check_bit: bool = False,
) -> RoundTranscript:
    """Execute one full round on a fresh GHZ triple by walking the
    round's state-vector branches.

    `qsim.walk` takes the branch from the round's walk table on one
    `rng.random(depth)` call: a uniform per measurement, against the Born
    probabilities of the state it measures, and per random step, in time
    order, exactly as `qsim.sample_schedule` draws.  The table and its
    depth are built once with the branches, so a round is one draw.
    This is the reference `run_round` is checked against: the two differ
    only in how they draw the branch whose shared transcript they return.
    """
    bit = _check_bit(bit)
    model = _checked_model(protocol, variant, trent)
    table, depth = model.walks[bit]
    branch = qsim.walk(table, rng.random(depth).tolist())
    return model.transcripts[model.offset[bit] + 4 * branch + 2 * bool(is_check_bit)]


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
    `round_distribution`) with one `rng.random()`, walking the one-level
    table over its branches with `qsim.walk`, and returns the branch's
    shared transcript, the one `run_round_statevector` returns for it.
    `run_round_statevector` walks the same branches on a uniform per
    measurement or random step: the two are distributionally identical.
    `run_session` samples a whole session at a fraction of this cost.
    """
    bit = _check_bit(bit)
    model = _checked_model(protocol, variant, trent)
    branch = qsim.walk(model.joint[bit], (rng.random(),))
    return model.transcripts[model.offset[bit] + 4 * branch + 2 * bool(is_check_bit)]


def _first_transcripts(lookup: tuple, bits: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per round, the first transcript index of the branch `run_round`
    takes on its uniform u in [0, 1) for its bit, from the model's guide
    table (Chen and Asau's indexed search).  u lies in bucket jj = bit * K
    + floor(u * K), K = GUIDE_BUCKETS, whose slot in `first` is `guide[jj]`
    (past the bit's sums at or below the bucket's lower edge), plus one
    when u reaches `inner[jj]`: `bisect_right`'s slot, since u * K is
    exact.  jj is an np.intp, since K times an int8 bit could overflow."""
    guide, inner, first = lookup
    jj = np.multiply(bits, GUIDE_BUCKETS, dtype=np.intp)
    jj += (uniforms * GUIDE_BUCKETS).astype(np.intp)
    return first[guide[jj] + (uniforms >= inner[jj])]


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
    branches, each uniform taken to the branch `run_round` draws on it for
    the round's bit by the model's guide table (`_first_transcripts`: one
    bucket read and one comparison, no search); then, only when
    `noise_probability` > 0, one `rng.random(n)` for the noise.  The
    configuration is checked before the first draw, so a rejected call
    leaves `rng` where it was.
    `noise_probability` is an optional classical channel-noise knob: each
    decoded bit is independently flipped with that probability,
    exercising the abort path without touching the quantum model.  Every
    round returns one of the four transcripts the cached model holds for
    its branch (message or check, each unflipped or flipped), the unflipped
    ones being those `run_round` returns, so a session builds none.  A
    rate is used as the number `check_rate` returns, and one it rejects
    (a NaN, a bool) is rejected.  So is a plan without check rounds, which
    would pass unchecked, or whose fields are not 1-D arrays of one length
    with integer bits and bool check flags: integer flags would index
    another's transcript, and the guide table reads integer bits only.
    """
    if not (isinstance(plan.bits, np.ndarray) and isinstance(plan.is_check, np.ndarray)
            and plan.bits.ndim == plan.is_check.ndim == 1 and plan.bits.dtype.kind in "biu"
            and plan.is_check.dtype == bool):
        raise ValueError("session plan needs 1-D numpy arrays of integer bits and of bool check flags")
    if plan.bits.shape != plan.is_check.shape:
        raise ValueError(f"plan has {plan.bits.size} bits but {plan.is_check.size} check flags")
    if not plan.is_check.any():
        raise ValueError("session plan has no check rounds")
    if not ((plan.bits == 0) | (plan.bits == 1)).all():
        raise ValueError("session plan bits must be 0 or 1")
    noise_probability = check_rate("noise_probability", noise_probability)
    abort_threshold = check_rate("abort_threshold", abort_threshold)
    # before any draw, so a rejected configuration leaves `rng` untouched
    model = _checked_model(protocol, variant, trent)

    n = plan.bits.size
    uniforms = rng.random(n)
    flipped = rng.random(n) < noise_probability if noise_probability > 0.0 else np.zeros(n, bool)
    # Each round's index in the model's transcripts: its branch's first, then its role and flip.
    index = _first_transcripts(model.lookup, plan.bits, uniforms) + 2 * plan.is_check + flipped
    transcripts = model.transcripts[index].tolist()
    error_rate = float(np.count_nonzero(model.check_error[index]) / np.count_nonzero(plan.is_check))
    abort = bool(error_rate > abort_threshold)
    return transcripts, error_rate, abort


def extract_message(transcripts: list[RoundTranscript], abort: bool) -> list[int] | None:
    """Bob's decoded message bits, available only when the session passed."""
    if abort:
        return None
    return [t.decoded_bit for t in transcripts if not t.is_check_bit]
