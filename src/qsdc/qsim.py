"""Exact state-vector simulation for 1-3 qubit systems.

Qubit 0 is the leftmost label in ket notation; for protocol states the
ordering is (Alice, Trent, Bob), so a basis ket |atb> lives at integer
index a*4 + t*2 + b.  States are immutable: every operation returns a
new StateVector.  Equality of states is always judged by fidelity, never
amplitude-wise, so global phase is irrelevant.
"""
from __future__ import annotations

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
        if abs(norm - 1.0) > 1e-9:
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
    n = int(np.log2(amps.size))
    return StateVector(num_qubits=n, amplitudes=amps)


def make_ghz() -> StateVector:
    """The three-qubit state (|000> + |111>)/sqrt(2) shared as (A, T, B)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = _SQRT2_INV
    amps[7] = _SQRT2_INV
    return StateVector(num_qubits=3, amplitudes=amps)


def apply_gate(state: StateVector, gate: Gate, qubit: int) -> StateVector:
    """Apply a single-qubit gate on the given tensor factor."""
    state._check_qubit(qubit)
    n = state.num_qubits
    amps = state.amplitudes.reshape([2] * n)
    # Contract the gate into axis `qubit`, then restore axis order.
    amps = np.tensordot(gate.matrix, amps, axes=([1], [qubit]))
    amps = np.moveaxis(amps, 0, qubit)
    # Unitary application preserves the norm; skip re-validation.
    return _fast_state(n, np.ascontiguousarray(amps.reshape(-1)))


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


def _project(state: StateVector, basis: str, qubits: tuple[int, ...]):
    """Born probability of every outcome of measuring `qubits` in `basis`,
    and a function from an outcome's index to its normalized post-state."""
    n = state.num_qubits
    k = len(qubits)
    moved = qubits != tuple(range(k))
    amps = state.amplitudes.reshape([2] * n)
    if moved:
        amps = np.moveaxis(amps, qubits, range(k))
    coeffs = _BASES[basis].conj() @ amps.reshape(2**k, -1)
    probs = np.einsum("ij,ij->i", coeffs, coeffs.conj()).real

    def collapse(index: int) -> StateVector:
        post = _BASES[basis][index][:, None] * (coeffs[index] / np.sqrt(probs[index]))
        post = post.reshape([2] * n)
        if moved:
            post = np.moveaxis(post, range(k), qubits)
        return _fast_state(n, np.ascontiguousarray(post.reshape(-1)))

    return probs, collapse


def z_probabilities(state: StateVector, qubit: int) -> dict[ZOutcome, float]:
    state._check_qubit(qubit)
    probs, _ = _project(state, "z", (qubit,))
    return dict(zip(OUTCOMES["z"], map(float, probs)))


def x_probabilities(state: StateVector, qubit: int) -> dict[XOutcome, float]:
    state._check_qubit(qubit)
    probs, _ = _project(state, "x", (qubit,))
    return dict(zip(OUTCOMES["x"], map(float, probs)))


def bell_probabilities(
    state: StateVector, qubit_a: int, qubit_b: int
) -> dict[BellOutcome, float]:
    _check_pair(state, qubit_a, qubit_b)
    probs, _ = _project(state, "bell", (qubit_a, qubit_b))
    return dict(zip(OUTCOMES["bell"], map(float, probs)))


def _sample_projective(state, basis, qubits, rng):
    """Born-rule sampling over a complete projective family.  Only the
    sampled branch's post-state is materialized."""
    probs, collapse = _project(state, basis, qubits)
    total = probs.sum()
    if total < 1e-12:
        raise ValueError("cannot measure a state with vanishing norm")

    draw = rng.random() * total
    cumulative = 0.0
    idx = None
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        idx = i  # fallback for draw == total under rounding
        cumulative += p
        if draw < cumulative:
            break
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


def sample_schedule(state: StateVector, schedule, rng) -> tuple[dict, StateVector]:
    """Run a step schedule on `state`.

    A schedule is a time-ordered tuple of steps: ("gate", Gate, qubit),
    ("measure", role, "z" | "x" | "bell", qubits) or ("random", role,
    alphabet), the last a uniformly random symbol.  Draws from `rng` in
    time order, one `rng.random()` per measurement and one `rng.integers`
    per random step, and returns the outcomes by role and the final state.
    """
    outcomes = {}
    for step in schedule:
        if step[0] == "gate":
            state = apply_gate(state, step[1], step[2])
        elif step[0] == "measure":
            _, role, basis, qubits = step
            # Looked up per call, so a rebound qsim.measure_* (a tracer's
            # wrapper, say) is the one that runs.
            measure = {"z": measure_z, "x": measure_x, "bell": measure_bell}[basis]
            outcomes[role], state = measure(state, *qubits, rng)
        else:
            _, role, alphabet = step
            outcomes[role] = alphabet[rng.integers(len(alphabet))]
    return outcomes, state


def enumerate_schedule(state: StateVector, schedule) -> list[tuple[float, dict]]:
    """(Born probability, outcomes by role) of every branch of a schedule
    run on `state` whose probability exceeds 1e-15, ordered by the first
    step's outcome, then the second's, each in alphabet order."""
    branches = [(1.0, {}, state)]
    for step in schedule:
        grown = []
        for probability, outcomes, current in branches:
            if step[0] == "gate":
                grown.append((probability, outcomes, apply_gate(current, step[1], step[2])))
            elif step[0] == "measure":
                _, role, basis, qubits = step
                probs, collapse = _project(current, basis, qubits)
                for index, outcome in enumerate(OUTCOMES[basis]):
                    p = probability * float(probs[index])
                    if p > 1e-15:
                        grown.append((p, {**outcomes, role: outcome}, collapse(index)))
            else:
                _, role, alphabet = step
                for outcome in alphabet:
                    grown.append((probability / len(alphabet), {**outcomes, role: outcome}, current))
        branches = grown
    return [(probability, outcomes) for probability, outcomes, _ in branches]
