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
their running sums (`round_distribution`), exact multiples of 1/BUCKETS
that end at exactly 1; every transcript, four per branch (message or
check round, decoded bit as measured or flipped by noise); a lookup
table; and the outcome classes `harness.run_experiment` draws from.  The
samplers only draw a branch and pick its shared transcript by index:
`run_round_statevector` walks the round's table with `qsim.walk`, and
`run_round` and `run_session` read their uniform's 1/BUCKETS bucket in
the lookup table, with no search.
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
from .qsim import BellOutcome, Gate, StateVector, XOutcome, ZOutcome, check_index


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
# buckets per bit of the lookup table.  Each round is a Clifford circuit, so
# its branch probabilities are multiples of 1/16 and no running sum falls
# inside a bucket; a power of two, so u * BUCKETS and each edge j / BUCKETS are exact
BUCKETS = 64

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


def encode_bit(variant: EncodingVariant, bit: int, state: StateVector) -> StateVector:
    """Apply Alice's gate sequence for the bit to qubit A."""
    qsim.check_member("variant", variant, EncodingVariant)
    bit = check_index("bit", bit, 2)
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
    sums: tuple  # per bit: the running sums of its branch probabilities, the last exactly 1.0
    # read-only: entry bit * BUCKETS + j is the first transcript of the
    # branch that every uniform in [j / BUCKETS, (j + 1) / BUCKETS) takes
    lookup: np.ndarray
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


@functools.cache
def _model(protocol: ProtocolId, variant: EncodingVariant, trent: TrentStrategy) -> _Model:
    """The configuration's record, cached per (protocol, variant, strategy);
    raises unless each Born probability lies within `qsim.ATOL` of a
    multiple of 1/BUCKETS and each bit's snapped probabilities sum to 1."""
    walks, sums, lookup, branches, offset, transcripts = [], [], [], [], [], []
    # (wrong, hit, z equal) -> [(probability, histogram label)] of its cells,
    # bit 0's cells first
    classes: dict[tuple[bool, bool, bool], list[tuple[float, str]]] = {}
    for bit in (0, 1):
        walked, table = _round_branches(protocol, variant, bit, trent)
        offset.append(len(transcripts))
        bit_branches = []
        for born, outcomes, _ in walked:
            # the exact probability: the Born float differs from it by rounding only
            p = round(born * BUCKETS) / BUCKETS
            if abs(p - born) > qsim.ATOL:
                raise AssertionError(f"branch probability {born} is not a multiple of 1/{BUCKETS}")
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
        bit_sums = np.cumsum([b.probability for b in bit_branches])
        if bit_sums[-1] != 1.0:
            raise AssertionError(f"branch probabilities sum to {bit_sums[-1]}")
        walks.append((table, qsim.schedule_depth(schedule(protocol, trent))))
        sums.append(tuple(bit_sums.tolist()))
        # a bucket holds no sum, so all its uniforms take its lower edge's branch
        edges = np.arange(BUCKETS) / BUCKETS
        lookup.append(offset[-1] + 4 * np.searchsorted(bit_sums, edges, side="right"))
        branches.append(tuple(bit_branches))
    wrong, hit, equal = (qsim._read_only(np.array(flags)) for flags in zip(*classes))
    p_class = np.array([sum(p for p, _ in members) for members in classes.values()])
    cells = []
    for members in classes.values():
        p_cell = np.array([p for p, _ in members])
        cells.append((tuple(label for _, label in members), qsim._read_only(p_cell / p_cell.sum())))
    return _Model(
        walks=tuple(walks),
        sums=tuple(sums),
        lookup=qsim._read_only(np.concatenate(lookup)),
        branches=tuple(branches),
        offset=tuple(offset),
        transcripts=qsim._read_only(np.array(transcripts, dtype=object)),
        check_error=qsim._read_only(
            np.array([t.is_check_bit and t.decoded_bit != t.sent_bit for t in transcripts])),
        classes=(wrong, hit, equal, qsim._read_only(p_class), tuple(cells)),
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

    Branch probabilities are exact multiples of 1/BUCKETS and sum to
    exactly 1; a uniform u takes the first branch whose cumulative sum
    exceeds u, in `run_round` and `run_session` alike.
    """
    bit = check_index("bit", bit, 2)
    model = _checked_model(protocol, variant, trent)
    return model.sums[bit], model.branches[bit]


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
    bit = check_index("bit", bit, 2)
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
    `round_distribution`; it sums to exactly 1) with one `rng.random()` u,
    read in the model's lookup table at the bit's bucket floor(u * BUCKETS),
    and returns the branch's shared transcript, the one
    `run_round_statevector` returns for it.  `run_round_statevector`
    walks the same branches on a uniform per measurement or random step:
    the two are distributionally identical.  `run_session` samples a whole
    session at a fraction of this cost.
    """
    bit = check_index("bit", bit, 2)
    model = _checked_model(protocol, variant, trent)
    first = model.lookup[bit * BUCKETS + int(rng.random() * BUCKETS)]
    return model.transcripts[first + 2 * bool(is_check_bit)]


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
    the round's bit by one read of the model's lookup table, no search
    (each bit's branch probabilities sum to exactly 1); then, only when
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
    another's transcript, and the lookup table reads integer bits only.
    """
    qsim.check_member("plan", plan, SessionPlan)
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
    # Each round's bucket, an np.intp since BUCKETS times an int8 bit could overflow; then
    # its index in the model's transcripts: its branch's first, then its role and flip.
    bucket = np.multiply(plan.bits, BUCKETS, dtype=np.intp)
    bucket += (uniforms * BUCKETS).astype(np.intp)
    index = model.lookup[bucket] + 2 * plan.is_check + flipped
    transcripts = model.transcripts[index].tolist()
    error_rate = float(np.count_nonzero(model.check_error[index]) / np.count_nonzero(plan.is_check))
    abort = bool(error_rate > abort_threshold)
    return transcripts, error_rate, abort


def extract_message(transcripts: list[RoundTranscript], abort: bool) -> list[int] | None:
    """Bob's decoded message bits, available only when the session passed."""
    if abort:
        return None
    return [t.decoded_bit for t in transcripts if not t.is_check_bit]
