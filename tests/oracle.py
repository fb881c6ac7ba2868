"""Independent brute-force oracle for round-level probabilities.

Everything here is built from scratch with explicit 8x8 projector
matrices (numpy kron), on purpose sharing no code with the package under
test.  Basis convention: qubit 0 is the leftmost ket label, ordering
(A, T, B), index a*4 + t*2 + b.
"""
from __future__ import annotations

import itertools

import numpy as np

S2 = 1 / np.sqrt(2)

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * S2
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET = {0: np.array([1, 0], dtype=complex), 1: np.array([0, 1], dtype=complex)}
KET_X = {"+": np.array([1, 1], dtype=complex) * S2, "-": np.array([1, -1], dtype=complex) * S2}
BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) * S2,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) * S2,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) * S2,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) * S2,
}


def op_on(matrix: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a 2x2 operator on one qubit of the 3-qubit space."""
    factors = [I2, I2, I2]
    factors[qubit] = matrix
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def swap_to_front(qubits: tuple[int, int]) -> np.ndarray:
    """Permutation matrix moving the given ordered pair to positions (0, 1)."""
    order = list(qubits) + [q for q in range(3) if q not in qubits]
    perm = np.zeros((8, 8), dtype=complex)
    for bits in itertools.product((0, 1), repeat=3):
        src = bits[0] * 4 + bits[1] * 2 + bits[2]
        # the qubits listed in `order` come first in the destination ket
        dst_bits = [bits[q] for q in order]
        dst = dst_bits[0] * 4 + dst_bits[1] * 2 + dst_bits[2]
        perm[dst, src] = 1
    return perm


def bell_projector(name: str, qubits: tuple[int, int]) -> np.ndarray:
    perm = swap_to_front(qubits)
    proj_front = np.kron(np.outer(BELL[name], BELL[name].conj()), I2)
    return perm.conj().T @ proj_front @ perm


def single_projector(vec: np.ndarray, qubit: int) -> np.ndarray:
    return op_on(np.outer(vec, vec.conj()), qubit)


def ghz() -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[0] = S2
    psi[7] = S2
    return psi


ENCODINGS = {
    ("original", 0): [H],
    ("original", 1): [H, X],  # operator product: X acts first
    ("revised", 0): [H],
    ("revised", 1): [H, Z],
}


def encode(variant: str, bit: int) -> np.ndarray:
    psi = ghz()
    for matrix in reversed(ENCODINGS[(variant, bit)]):
        psi = op_on(matrix, 0) @ psi
    return psi


# Decode tables transcribed independently: announcement/measurement pairs
# grouped by which bit they indicate.  Identical for both variants.
def decode_p1(trent_x: str, bob_bell: str) -> int:
    group1 = {"phi+", "psi-"}
    if trent_x == "+":
        return 1 if bob_bell in group1 else 0
    return 0 if bob_bell in group1 else 1


def decode_p2(trent_bell: str, bob_x: str) -> int:
    group1 = {"phi+", "psi-"}
    if trent_bell in group1:
        return 1 if bob_x == "+" else 0
    return 0 if bob_x == "+" else 1


def measure_chain(psi: np.ndarray, families: list[dict]) -> list[tuple[tuple, float]]:
    """All joint outcomes of a chain of operator families, with their
    probabilities.  A family maps each outcome to an operator K, taken
    with probability |K psi|^2: a projective measurement's projectors, a
    gate's one unitary (`gate_family`) or a uniformly random symbol's
    scaled identities (`random_family`)."""
    results = []

    def recurse(state, prob, outcomes, remaining):
        if prob < 1e-15:
            return
        if not remaining:
            results.append((tuple(outcomes), prob))
            return
        family, rest = remaining[0], remaining[1:]
        for name, operator in family.items():
            branch = operator @ state
            p = float(np.vdot(branch, branch).real)
            if p < 1e-15:
                continue
            recurse(branch / np.sqrt(p), prob * p, outcomes + [name], rest)

    recurse(psi, 1.0, [], families)
    return results


def bell_family(qubits):
    return {name: bell_projector(name, qubits) for name in BELL}


def x_family(qubit):
    return {name: single_projector(vec, qubit) for name, vec in KET_X.items()}


def z_family(qubit):
    return {name: single_projector(KET[bit], qubit) for name, bit in (("0", 0), ("1", 1))}


def gate_family(matrix, qubit):
    return {"gate": op_on(matrix, qubit)}


def random_family(symbols):
    symbols = list(symbols)
    return {symbol: np.eye(8, dtype=complex) / np.sqrt(len(symbols)) for symbol in symbols}


def honest_round(protocol: int, variant: str, bit: int):
    """Joint (announcement, bob outcome, decoded, probability) branches."""
    psi = encode(variant, bit)
    rows = []
    if protocol == 1:
        for (bell, x), p in measure_chain(psi, [bell_family((0, 2)), x_family(1)]):
            rows.append((x, bell, decode_p1(x, bell), p))
    else:
        for (bell, x), p in measure_chain(psi, [bell_family((0, 1)), x_family(2)]):
            rows.append((bell, x, decode_p2(bell, x), p))
    return rows


def honest_correct_probability(protocol: int, variant: str, bit: int) -> float:
    return sum(p for _, _, decoded, p in honest_round(protocol, variant, bit) if decoded == bit)


def attacked_round(protocol: int, variant: str, bit: int):
    """Branches of an attacked round.

    Protocol 1: Trent rotates A with H, Z-measures A and T, forwards the
    collapsed qubit; Bob Bell-measures (A, B); Trent announces a genuine
    X measurement of his collapsed qubit.  Protocol 2: same Z attack, then
    a uniformly random Bell announcement while Bob X-measures B.

    Yields (z_a, z_t, guess, announcement, bob outcome, decoded, prob).
    """
    psi = op_on(H, 0) @ encode(variant, bit)
    rows = []
    if protocol == 1:
        chain = [z_family(0), z_family(1), bell_family((0, 2)), x_family(1)]
        for (za, zt, bell, x), p in measure_chain(psi, chain):
            guess = 0 if za == zt else 1
            rows.append((za, zt, guess, x, bell, decode_p1(x, bell), p))
    else:
        chain = [z_family(0), z_family(1), x_family(2)]
        for (za, zt, x), p in measure_chain(psi, chain):
            guess = 0 if za == zt else 1
            for bell in BELL:  # uniform random announcement
                rows.append((za, zt, guess, bell, x, decode_p2(bell, x), p * 0.25))
    return rows


def attacked_error_probability(protocol: int, variant: str, bit: int) -> float:
    return sum(
        p for *_, decoded, p in attacked_round(protocol, variant, bit) if decoded != bit
    )


def attacked_guess_accuracy(protocol: int, variant: str) -> float:
    """Accuracy of Trent's guess against a uniformly random message bit."""
    total = 0.0
    for bit in (0, 1):
        total += 0.5 * sum(
            row[-1]
            for row in attacked_round(protocol, variant, bit)
            if row[2] == bit
        )
    return total


def adversary_view(protocol: int, variant: str, bit: int) -> dict:
    """Distribution of what the attacker sees: (z_a, z_t, guess)."""
    view: dict = {}
    for za, zt, guess, *_rest, p in attacked_round(protocol, variant, bit):
        key = (za, zt, guess)
        view[key] = view.get(key, 0.0) + p
    return view


def reduced_state(psi: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Density matrix of the qubits `keep`, in that order, of a 3-qubit
    pure state: the other qubits are traced out."""
    tensor = np.moveaxis(psi.reshape(2, 2, 2), keep, list(range(len(keep))))
    kept = tensor.reshape(2 ** len(keep), -1)
    return kept @ kept.conj().T


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """½‖ρ − σ‖₁: half the summed absolute eigenvalues of the difference."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
