"""Exact state-vector simulation for 1-3 qubit systems.

Qubit 0 is the leftmost label in ket notation; for protocol states the
ordering is (Alice, Trent, Bob), so a basis ket |atb> lives at integer
index a*4 + t*2 + b.  States are immutable: every operation returns a
new StateVector.  Equality of states is always judged by fidelity, never
amplitude-wise, so global phase is irrelevant.

Every gate and measurement is one matrix product on the amplitude
vector.  The matrices are built once per (qubit count, gate, qubit) and
per (qubit count, basis, qubits) by their definitions, as Kronecker
products with identities (see `_gate_operator` and `_projectors`), and
cached.

A step schedule (gates, measurements and uniformly random symbols in
time order) has one exact walk: `schedule_branches` applies each gate
and projects each measurement once per branch, in one recursive pass
that lists every branch with its joint probability and builds the walk
table of the same branches.  An outcome is possible only when its Born
probability exceeds ATOL: smaller ones are rounding residue of exact
zeros, so no branch has them and `measure_*` never returns them.
`walk` is the one rule that turns uniforms into an outcome or a branch,
over one node kind: `measure_*` walk the node `_born` builds from a
measurement's probabilities, and `schedule_branches` nests such nodes,
a random step's of n outcomes at 1/n, into a schedule's table, which
takes one uniform per measurement or random step.  `sample_schedule`
draws them in one call, walks the table and returns the leaf's outcomes
and final state: the one runner of a schedule.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Tolerance for algebraic identities; double precision over at most
# 8 amplitudes accumulates far less error than this.
ATOL = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_GATE_MATRICES = {
    "Identity": np.eye(2, dtype=complex),
    "PauliX": np.array([[0, 1], [1, 0]], dtype=complex),
    "PauliZ": np.array([[1, 0], [0, -1]], dtype=complex),
    "Hadamard": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
}


class Gate(Enum):
    """Single-qubit gates used by the protocols."""

    IDENTITY = "Identity"
    PAULI_X = "PauliX"
    PAULI_Z = "PauliZ"
    HADAMARD = "Hadamard"

    @property
    def matrix(self) -> np.ndarray:
        return _GATE_MATRICES[self.value]


class ZOutcome(Enum):
    ZERO = 0
    ONE = 1


class XOutcome(Enum):
    PLUS = "+"
    MINUS = "-"


class BellOutcome(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


# Bell vectors over an ordered qubit pair, in the |q_a q_b> product basis.
BELL_VECTORS = {
    BellOutcome.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT2_INV,
    BellOutcome.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT2_INV,
    BellOutcome.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT2_INV,
    BellOutcome.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT2_INV,
}

X_VECTORS = {
    XOutcome.PLUS: np.array([1, 1], dtype=complex) * _SQRT2_INV,
    XOutcome.MINUS: np.array([1, -1], dtype=complex) * _SQRT2_INV,
}


def check_member(name: str, value, kind: type) -> None:
    """Raise ValueError unless `value` is a `kind`, such as a member of an enum."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")


def check_integer(name: str, value: int, low: int, high: int) -> int:
    """`value` as a plain int; raises ValueError unless an integer, not a bool, in [low, high]."""
    integer = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= int(value) <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over 1-3 qubits, copied on construction.
    A state equals and hashes as itself only: compare states by `fidelity`."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", check_integer("num_qubits", self.num_qubits, 1, 3))
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = np.sum(np.abs(amps) ** 2)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def _check_qubit(self, qubit: int) -> int:
        if not (type(qubit) is int or isinstance(qubit, (numbers.Integral, np.bool_))):
            raise ValueError(f"qubit must be an integer, got {qubit!r}")
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit index {qubit} out of range for {self.num_qubits}-qubit state"
            )
        return int(qubit)


def make_state(amplitudes) -> StateVector:
    """Build a StateVector, inferring the qubit count from the length."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = {2: 1, 4: 2, 8: 3}.get(amps.size)
    if n is None:
        raise ValueError(f"expected 2, 4 or 8 amplitudes, got {amps.size}")
    return StateVector(num_qubits=n, amplitudes=amps)


def make_ghz() -> StateVector:
    """The three-qubit state (|000> + |111>)/sqrt(2) shared as (A, T, B)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = _SQRT2_INV
    amps[7] = _SQRT2_INV
    return StateVector(num_qubits=3, amplitudes=amps)


@functools.cache
def _gate_operator(num_qubits: int, gate: Gate, qubit: int) -> np.ndarray:
    """The 2^n x 2^n matrix I (x) G (x) I of `gate` on tensor factor `qubit`."""
    before, after = np.eye(2**qubit), np.eye(2 ** (num_qubits - qubit - 1))
    return _read_only(np.kron(np.kron(before, gate.matrix), after))


def apply_gate(state: StateVector, gate: Gate, qubit: int) -> StateVector:
    """Apply a single-qubit gate on the given tensor factor."""
    check_member("gate", gate, Gate)
    qubit = state._check_qubit(qubit)
    n = state.num_qubits
    # Unitary application preserves the norm; skip re-validation.
    return _fast_state(n, _gate_operator(n, gate, qubit) @ state.amplitudes)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the phase-invariant overlap of two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _fast_state(num_qubits: int, amplitudes: np.ndarray) -> StateVector:
    """Internal constructor for amplitudes already known to be normalized."""
    state = object.__new__(StateVector)
    amplitudes.flags.writeable = False
    object.__setattr__(state, "num_qubits", num_qubits)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


def _read_only(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    array.flags.writeable = False
    return array


# Outcome alphabet and stacked basis vectors of each measurement basis.
OUTCOMES = {
    "z": (ZOutcome.ZERO, ZOutcome.ONE),
    "x": (XOutcome.PLUS, XOutcome.MINUS),
    "bell": tuple(BellOutcome),
}
_BASES = {
    "z": np.eye(2, dtype=complex),
    "x": np.stack([X_VECTORS[o] for o in OUTCOMES["x"]]),
    "bell": np.stack([BELL_VECTORS[o] for o in OUTCOMES["bell"]]),
}


@functools.cache
def _projectors(num_qubits: int, basis: str, qubits: tuple[int, ...]):
    """(bras, kets) of measuring `qubits` in `basis`, one pair per outcome.

    bras[i] (2^(n-k) x 2^n) maps a state to the amplitudes of the other
    qubits, in their order, that go with outcome i; kets[i] (2^n x
    2^(n-k)) maps such amplitudes back to a state whose measured qubits
    are in outcome i's basis vector.
    """
    n, k = num_qubits, len(qubits)
    rest = np.eye(2 ** (n - k))
    # moves the measured qubits, in order, to the front of every basis ket
    to_front = np.moveaxis(np.eye(2**n).reshape([2] * n + [-1]), qubits, range(k)).reshape(2**n, -1)
    bras = np.stack([np.kron(vector.conj(), rest) for vector in _BASES[basis]]) @ to_front
    return _read_only(bras), _read_only(bras.conj().transpose(0, 2, 1))


def _project(state: StateVector, basis: str, qubits: tuple[int, ...]):
    """Born probability of every outcome of measuring `qubits` in `basis`,
    and `collapse`, from an outcome's index to its normalized post-state;
    raises ValueError unless each measured qubit is in range and, for a
    Bell measurement, the state has at least 2 qubits and the two differ."""
    n = state.num_qubits
    if basis == "bell" and n < 2:
        raise ValueError("Bell measurement needs at least 2 qubits")
    qubits = tuple([state._check_qubit(qubit) for qubit in qubits])
    if qubits[0] in qubits[1:]:
        raise ValueError(f"Bell measurement needs two distinct qubits, got {qubits[0]} twice")
    bras, kets = _projectors(n, basis, qubits)
    coeffs = bras @ state.amplitudes
    probs = np.einsum("ij,ij->i", coeffs, coeffs.conj()).real

    def collapse(index: int) -> StateVector:
        return _fast_state(n, kets[index] @ (coeffs[index] / np.sqrt(probs[index])))

    return probs, collapse


def x_probabilities(state: StateVector, qubit: int) -> dict[XOutcome, float]:
    probs, _ = _project(state, "x", (qubit,))
    return dict(zip(OUTCOMES["x"], map(float, probs)))


def _born(probs: np.ndarray) -> tuple[tuple[float, ...], float, tuple[int, ...]]:
    """The `walk` node of one measurement: (cumulative, total, kids),
    kids the indices of its possible outcomes padded with the last one.

    An outcome is possible when its probability exceeds ATOL; below that
    it is rounding residue of an exact zero (about 1e-33 in the protocol
    rounds) and never drawn.  The pad takes a draw that rounding leaves
    past every cumulative sum."""
    weights = probs.tolist()
    support = [i for i, p in enumerate(weights) if p > ATOL]
    if not support:
        raise ValueError("cannot measure a state with vanishing norm")
    cumulative = tuple(itertools.accumulate(weights[i] for i in support))
    return cumulative, float(probs.sum()), tuple(support + support[-1:])


def _sample_projective(state, basis, qubits, rng):
    """Born-rule sampling over a complete projective family.  Only the
    sampled branch's post-state is materialized."""
    probs, collapse = _project(state, basis, qubits)
    idx = walk(_born(probs), (rng.random(),))
    return OUTCOMES[basis][idx], collapse(idx)


def measure_z(state: StateVector, qubit: int, rng) -> tuple[ZOutcome, StateVector]:
    """Projective Z-basis measurement of one qubit; returns the outcome and
    the renormalized post-measurement state."""
    return _sample_projective(state, "z", (qubit,), rng)


def measure_x(state: StateVector, qubit: int, rng) -> tuple[XOutcome, StateVector]:
    """Projective measurement in the |+>/|-> basis."""
    return _sample_projective(state, "x", (qubit,), rng)


def measure_bell(
    state: StateVector, qubit_a: int, qubit_b: int, rng
) -> tuple[BellOutcome, StateVector]:
    """Projective Bell-basis measurement of the ordered pair (qubit_a, qubit_b)."""
    return _sample_projective(state, "bell", (qubit_a, qubit_b), rng)


def schedule_branches(state: StateVector, schedule) -> tuple[list[tuple[float, dict, StateVector]], object]:
    """The exact branches of a step schedule run on `state`, and its walk table.

    A schedule is a time-ordered tuple of steps: ("gate", Gate, qubit),
    ("measure", role, "z" | "x" | "bell", qubits) or ("random", role,
    alphabet), the last a uniformly random symbol.  Each gate is applied
    and each measurement projected once per branch; every possible
    outcome (Born probability above ATOL) gets its branches.

    `branches` holds (joint probability, outcomes by role, final state)
    of every branch, ordered by the first step's outcome, then the
    second's, each in alphabet order.  `table` is the tree of the same
    branches as nested tuples, read by `walk`: a measurement is its
    `_born` node with each outcome index replaced by the subtable of
    that outcome, and a random step over n symbols is the node of n
    outcomes at 1/n; a leaf is its branch's index in `branches`.
    """
    branches = []

    def visit(state, steps, probability, outcomes):
        if not steps:
            branches.append((probability, outcomes, state))
            return len(branches) - 1
        step, rest = steps[0], steps[1:]
        if step[0] == "gate":
            return visit(apply_gate(state, step[1], step[2]), rest, probability, outcomes)
        if step[0] == "measure":
            _, role, basis, qubits = step
            probs, collapse = _project(state, basis, qubits)
            alphabet = OUTCOMES[basis]
        else:  # a random step: n outcomes at 1/n that leave the state; for n = 2 or 4
            # the running sums k/n are exact, so u in [k/n, (k+1)/n) takes symbol k
            _, role, alphabet = step
            probs, collapse = np.full(len(alphabet), 1 / len(alphabet)), lambda i: state
        cumulative, total, picks = _born(probs)
        weights = probs.tolist()
        kids = [visit(collapse(i), rest, probability * weights[i], {**outcomes, role: alphabet[i]})
                for i in picks[:-1]]
        return cumulative, total, tuple(kids + kids[-1:])

    table = visit(state, schedule, 1.0, {})
    return branches, table


def schedule_depth(schedule) -> int:
    """The uniforms a walk of the schedule's table takes: one per measurement or random step."""
    return sum(step[0] != "gate" for step in schedule)


def walk(table, draws) -> int:
    """The leaf of a `schedule_branches` table or `_born` node that the
    uniforms `draws` take, one per level in time order: at each node
    (cumulative, total, kids), the first kid whose cumulative sum exceeds
    the draw times the total.  A pure function of the table and the draws."""
    node = table
    for u in draws:
        cumulative, total, kids = node
        node = kids[bisect.bisect_right(cumulative, u * total)]
    return node


def sample_schedule(state: StateVector, schedule, rng) -> tuple[dict, StateVector]:
    """The outcomes by role and the final state of the branch of
    `schedule_branches(state, schedule)` that `walk` takes on one `rng.random(schedule_depth(schedule))`."""
    branches, table = schedule_branches(state, schedule)
    _, outcomes, final = branches[walk(table, rng.random(schedule_depth(schedule)).tolist())]
    return outcomes, final
