"""Trent's strategies, his steps in a round, and attack metrics.

Trent is the authenticator who supplies the GHZ triples.  He can either
play honestly or run the insider attack: rotate Alice's qubit with a
Hadamard, read Alice's qubit and his own in the Z basis, and infer the
encoded bit from whether the two outcomes agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import qsim
from .qsim import BellOutcome, Gate, StateVector, XOutcome, ZOutcome

# Qubit indices in the shared (Alice, Trent, Bob) triple.
QUBIT_A, QUBIT_T, QUBIT_B = 0, 1, 2


class StrategyKind(Enum):
    HONEST = "honest"
    ATTACK = "attack"


class AnnouncementPolicy(Enum):
    """What an attacking Trent announces in place of his honest measurement."""

    GENUINE_MEASUREMENT = "genuine"
    UNIFORM_RANDOM = "uniform"


@dataclass(frozen=True)
class TrentStrategy:
    kind: StrategyKind
    announcement_policy: AnnouncementPolicy | None = None

    def __post_init__(self):
        # hashed once: every cached-model lookup hashes the strategy
        try:
            object.__setattr__(self, "_hash", hash((self.kind, self.announcement_policy)))
        except TypeError:  # only a malformed field is unhashable
            check_strategy(self)
            raise

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def honest(cls) -> "TrentStrategy":
        return cls(kind=StrategyKind.HONEST)

    @classmethod
    def attack(cls, announcement_policy: AnnouncementPolicy | None = None) -> "TrentStrategy":
        return cls(kind=StrategyKind.ATTACK, announcement_policy=announcement_policy)


@dataclass(frozen=True)
class AttackRecord:
    """Trent's raw Z outcomes on (A, T) and the bit he infers from them."""

    z_outcome_a: ZOutcome
    z_outcome_t: ZOutcome
    guessed_bit: int

    def __post_init__(self):
        expected = 0 if self.z_outcome_a == self.z_outcome_t else 1
        if self.guessed_bit != expected:
            raise ValueError("guessed_bit inconsistent with the equal-outcomes rule")


# The insider attack as schedule steps (see qsim): a Hadamard on Alice's
# qubit, then Z reads of her qubit and of Trent's own.
ATTACK_STEPS = (
    ("gate", Gate.HADAMARD, QUBIT_A),
    ("measure", "z_a", "z", (QUBIT_A,)),
    ("measure", "z_t", "z", (QUBIT_T,)),
)

# Trent's honest announcement in each protocol.
P1_ANNOUNCEMENT = ("measure", "trent", "x", (QUBIT_T,))
P2_ANNOUNCEMENT = ("measure", "trent", "bell", (QUBIT_A, QUBIT_T))


def check_strategy(trent: TrentStrategy) -> None:
    """Raise ValueError unless `trent` is a TrentStrategy holding a
    StrategyKind with a policy or None, None if honest."""
    qsim.check_member("trent", trent, TrentStrategy)
    kind, policy = trent.kind, trent.announcement_policy
    if not isinstance(kind, StrategyKind) or not (policy is None or isinstance(policy, AnnouncementPolicy)):
        raise ValueError(f"trent must hold a StrategyKind and a policy or None, got {trent}")
    if kind is StrategyKind.HONEST and policy is not None:
        raise ValueError(f"trent: an honest Trent takes no announcement_policy, got {policy}")


def trent_steps(trent: TrentStrategy, honest_announcement, default_policy: AnnouncementPolicy):
    """Trent's part of a round: his attack steps (none when honest) and
    his announcement step; a malformed strategy raises ValueError.

    An attacking Trent announces per his policy, or `default_policy` when
    he names none: the honest measurement itself (genuine) or a uniformly
    random outcome of its basis (uniform).
    """
    check_strategy(trent)
    if trent.kind is StrategyKind.HONEST:
        return (), honest_announcement
    if (trent.announcement_policy or default_policy) is AnnouncementPolicy.UNIFORM_RANDOM:
        _, role, basis, _ = honest_announcement
        return ATTACK_STEPS, ("random", role, qsim.OUTCOMES[basis])
    return ATTACK_STEPS, honest_announcement


def attack_record(outcomes: dict) -> AttackRecord | None:
    """Trent's Z outcomes in a round's outcomes by role, and the bit he
    infers (0 when they agree); None when he did not attack."""
    if "z_a" not in outcomes:
        return None
    z_a, z_t = outcomes["z_a"], outcomes["z_t"]
    return AttackRecord(z_outcome_a=z_a, z_outcome_t=z_t, guessed_bit=0 if z_a == z_t else 1)


def attack_p1(state: StateVector, rng) -> tuple[AttackRecord, StateVector]:
    """Intercept-measure-resend attack on the qubit in transit to Bob.

    Returns the attack record and the collapsed three-qubit state; Alice's
    qubit is forwarded to Bob as-is (no re-preparation) and Trent keeps
    his own collapsed qubit for the later public announcement.
    """
    outcomes, state = qsim.sample_schedule(state, ATTACK_STEPS, rng)
    return attack_record(outcomes), state


def attack_p2(
    state: StateVector,
    rng,
    policy: AnnouncementPolicy = AnnouncementPolicy.UNIFORM_RANDOM,
) -> tuple[AttackRecord, BellOutcome, StateVector]:
    """Measurement attack on the qubit Alice legitimately sends to Trent.

    Trent skips the honest Bell measurement, reads (A, T) in the Z basis
    after a Hadamard on A, and announces a Bell outcome per `policy`:
    a uniformly random one by default, or a genuine Bell measurement of
    his collapsed pair.  Also returns the collapsed state Bob still holds
    a share of.
    """
    attack, announce = trent_steps(TrentStrategy.attack(policy), P2_ANNOUNCEMENT, policy)
    outcomes, state = qsim.sample_schedule(state, attack + (announce,), rng)
    return attack_record(outcomes), outcomes["trent"], state


def honest_p1_announcement(state: StateVector, rng) -> tuple[XOutcome, StateVector]:
    """Honest Trent's X-basis measurement of his qubit, truthfully published."""
    return qsim.measure_x(state, QUBIT_T, rng)


def attack_metrics(transcripts) -> tuple[float, float | None, float]:
    """Summarize attacked rounds.

    Returns (guess_accuracy, bob_error_rate, z_equal_fraction): the error
    rate over check rounds only (None without any), the other two over all
    rounds carrying an adversary record.
    """
    transcripts = list(transcripts)
    guessed = [t for t in transcripts if t.adversary_guess is not None]
    if not guessed:
        raise ValueError("attack_metrics needs at least one transcript with an adversary guess")
    guess_accuracy = sum(
        t.adversary_guess == t.sent_bit for t in guessed
    ) / len(guessed)
    z_equal_fraction = sum(
        t.adversary_raw[0] == t.adversary_raw[1] for t in guessed
    ) / len(guessed)
    checks = [t for t in transcripts if t.is_check_bit]
    if checks:
        bob_error_rate = sum(t.decoded_bit != t.sent_bit for t in checks) / len(checks)
    else:
        bob_error_rate = None
    return guess_accuracy, bob_error_rate, z_equal_fraction
