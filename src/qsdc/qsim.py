"""Exact state-vector simulation for 1-3 qubit systems.

Qubit 0 is the leftmost label in ket notation; for protocol states the
ordering is (Alice, Trent, Bob), so a basis ket |atb> lives at integer
index a*4 + t*2 + b.  States are immutable: every operation returns a
new StateVector.  Equality of states is always judged by fidelity, never
amplitude-wise, so global phase is irrelevant.

Every gate and measurement is one matrix product on the amplitude
vector.  The matrices are built once per (qubit count, gate, qubit) and
per (qubit count, basis, qubits), by running the axis contraction that
defines the operation on the identity, and cached.

A step schedule (gates, measurements and uniformly random symbols in
time order) has one exact walk: `schedule_tree` applies each gate and
projects each measurement once per branch and keeps every Born
probability and post-measurement state.  An outcome is possible only
when its Born probability exceeds ATOL: smaller ones are rounding
residue of exact zeros, so the tree has no branch for them and
`measure_*` never returns them.  `tree_branches` flattens the tree into
its exact branch list and `sample_tree` walks it, one draw per
measurement or random step; a measurement picks its outcome by the same
rule as `measure_*`.  `sample_schedule` builds a schedule's tree and
walks it.
"""
from __future__ import annotations

import bisect
import functools
import itertools
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


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over 1-3 qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits not in (1, 2, 3):
            raise ValueError(f"num_qubits must be 1, 2 or 3, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = np.sum(np.abs(amps) ** 2)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit index {qubit} out of range for {self.num_qubits}-qubit state"
            )


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
    """The 2^n x 2^n matrix of `gate` on tensor factor `qubit`."""
    # Contract the gate into axis `qubit` of every basis ket (the trailing
    # axis of `identity` indexes the kets), then restore axis order.
    identity = np.eye(2**num_qubits, dtype=complex).reshape([2] * num_qubits + [-1])
    operator = np.moveaxis(np.tensordot(gate.matrix, identity, axes=([1], [qubit])), 0, qubit)
    return _read_only(operator.reshape(2**num_qubits, -1))


def apply_gate(state: StateVector, gate: Gate, qubit: int) -> StateVector:
    """Apply a single-qubit gate on the given tensor factor."""
    state._check_qubit(qubit)
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


def _check_pair(state: StateVector, qubit_a: int, qubit_b: int) -> None:
    if state.num_qubits < 2:
        raise ValueError("Bell measurement needs at least 2 qubits")
    state._check_qubit(qubit_a)
    state._check_qubit(qubit_b)
    if qubit_a == qubit_b:
        raise ValueError(f"Bell measurement needs two distinct qubits, got {qubit_a} twice")


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
    rest = 2 ** (n - k)
    basis_vectors = _BASES[basis]
    # Move the measured qubits to the front of every basis ket (the
    # trailing axis of `identity` indexes the kets) and take their
    # overlaps with the basis vectors.
    identity = np.eye(2**n, dtype=complex).reshape([2] * n + [-1])
    moved = np.moveaxis(identity, qubits, range(k)).reshape(2**k, -1)
    bras = (basis_vectors.conj() @ moved).reshape(len(basis_vectors), rest, 2**n)
    # Tensor each basis vector with every basis ket of the other qubits,
    # then move the measured qubits back into place.
    post = basis_vectors[:, :, None, None] * np.eye(rest, dtype=complex)[None, None]
    post = np.moveaxis(post.reshape([-1] + [2] * n + [rest]), range(1, k + 1), [q + 1 for q in qubits])
    return _read_only(bras), _read_only(post.reshape(len(basis_vectors), 2**n, rest))


def _project(state: StateVector, basis: str, qubits: tuple[int, ...]):
    """Born probability of every outcome of measuring `qubits` in `basis`,
    and a function from an outcome's index to its normalized post-state."""
    n = state.num_qubits
    bras, kets = _projectors(n, basis, qubits)
    coeffs = bras @ state.amplitudes
    probs = np.einsum("ij,ij->i", coeffs, coeffs.conj()).real

    def collapse(index: int) -> StateVector:
        return _fast_state(n, kets[index] @ (coeffs[index] / np.sqrt(probs[index])))

    return probs, collapse


def x_probabilities(state: StateVector, qubit: int) -> dict[XOutcome, float]:
    state._check_qubit(qubit)
    probs, _ = _project(state, "x", (qubit,))
    return dict(zip(OUTCOMES["x"], map(float, probs)))


class _Born:
    """Born probabilities of one measurement, the outcomes it makes
    possible and the rule that turns a uniform draw into one of them.

    An outcome is possible when its probability exceeds ATOL; below that
    it is rounding residue of an exact zero (about 1e-33 in the protocol
    rounds) and never drawn.  A draw picks the first possible outcome
    whose cumulative probability exceeds the draw times the total, the
    last possible one when rounding leaves none."""

    __slots__ = ("probs", "total", "support", "cumulative")

    def __init__(self, probs: np.ndarray):
        self.probs = probs.tolist()
        self.total = float(probs.sum())
        self.support = [i for i, p in enumerate(self.probs) if p > ATOL]
        if not self.support:
            raise ValueError("cannot measure a state with vanishing norm")
        self.cumulative = list(itertools.accumulate(self.probs[i] for i in self.support))

    def pick(self, u: float) -> int:
        k = bisect.bisect_right(self.cumulative, u * self.total)
        return self.support[min(k, len(self.support) - 1)]


def _sample_projective(state, basis, qubits, rng):
    """Born-rule sampling over a complete projective family.  Only the
    sampled branch's post-state is materialized."""
    probs, collapse = _project(state, basis, qubits)
    idx = _Born(probs).pick(rng.random())
    return OUTCOMES[basis][idx], collapse(idx)


def measure_z(state: StateVector, qubit: int, rng) -> tuple[ZOutcome, StateVector]:
    """Projective Z-basis measurement of one qubit; returns the outcome and
    the renormalized post-measurement state."""
    state._check_qubit(qubit)
    return _sample_projective(state, "z", (qubit,), rng)


def measure_x(state: StateVector, qubit: int, rng) -> tuple[XOutcome, StateVector]:
    """Projective measurement in the |+>/|-> basis."""
    state._check_qubit(qubit)
    return _sample_projective(state, "x", (qubit,), rng)


def measure_bell(
    state: StateVector, qubit_a: int, qubit_b: int, rng
) -> tuple[BellOutcome, StateVector]:
    """Projective Bell-basis measurement of the ordered pair (qubit_a, qubit_b)."""
    _check_pair(state, qubit_a, qubit_b)
    return _sample_projective(state, "bell", (qubit_a, qubit_b), rng)


@dataclass(frozen=True, eq=False)
class TreeNode:
    """One node of a schedule's branch tree.

    A measurement node holds the Born probabilities of its state
    (`born`) and one child per outcome of `outcomes`, None where the
    outcome is impossible (see `_Born`).  A random step (`born` None)
    has one child per symbol, all the same subtree.  A leaf has no
    children.  `state` is the state the node's step acts on; at a leaf,
    the final state.
    """

    role: str | None
    outcomes: tuple
    born: _Born | None
    children: tuple
    state: StateVector


def schedule_tree(state: StateVector, schedule) -> TreeNode:
    """The exact branch tree of a step schedule run on `state`.

    A schedule is a time-ordered tuple of steps: ("gate", Gate, qubit),
    ("measure", role, "z" | "x" | "bell", qubits) or ("random", role,
    alphabet), the last a uniformly random symbol.  Each gate is applied
    and each measurement projected once per branch; every possible
    outcome (Born probability above ATOL) gets its subtree.
    """
    if not schedule:
        return TreeNode(None, (), None, (), state)
    step, rest = schedule[0], schedule[1:]
    if step[0] == "gate":
        return schedule_tree(apply_gate(state, step[1], step[2]), rest)
    if step[0] == "measure":
        _, role, basis, qubits = step
        if basis == "bell":
            _check_pair(state, *qubits)
        else:
            state._check_qubit(*qubits)
        probs, collapse = _project(state, basis, qubits)
        born = _Born(probs)
        children = tuple(
            schedule_tree(collapse(i), rest) if i in born.support else None
            for i in range(len(probs))
        )
        return TreeNode(role, OUTCOMES[basis], born, children, state)
    _, role, alphabet = step
    return TreeNode(role, tuple(alphabet), None, (schedule_tree(state, rest),) * len(alphabet), state)


def tree_branches(tree: TreeNode) -> list[tuple[float, dict, tuple]]:
    """(joint probability, outcomes by role, path) of every branch of
    `tree`, ordered by the first step's outcome, then the second's, each
    in alphabet order.  A path is the tuple of child indices `sample_tree`
    returns."""
    branches = []

    def visit(node, probability, outcomes, path):
        if not node.children:
            branches.append((probability, outcomes, path))
        for index, (outcome, child) in enumerate(zip(node.outcomes, node.children)):
            if child is None:
                continue
            if node.born is None:
                p = probability / len(node.children)
            else:
                p = probability * node.born.probs[index]
            visit(child, p, {**outcomes, node.role: outcome}, path + (index,))

    visit(tree, 1.0, {}, ())
    return branches


def sample_tree(tree: TreeNode, rng) -> tuple[tuple[int, ...], TreeNode]:
    """One branch of `tree`, drawn from `rng` in time order: one
    `rng.random()` per measurement, one `rng.integers` per random step.
    Returns the child indices taken and the leaf reached."""
    path = []
    node = tree
    while node.children:
        born = node.born
        index = int(rng.integers(len(node.children))) if born is None else born.pick(rng.random())
        path.append(index)
        node = node.children[index]
    return tuple(path), node


def sample_schedule(state: StateVector, schedule, rng) -> tuple[dict, StateVector]:
    """Sample one branch of a step schedule run on `state` (see
    `schedule_tree`): the outcomes by role and the final state."""
    node = schedule_tree(state, schedule)
    path, leaf = sample_tree(node, rng)
    outcomes = {}
    for index in path:
        outcomes[node.role] = node.outcomes[index]
        node = node.children[index]
    return outcomes, leaf.state
