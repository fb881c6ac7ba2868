"""The benchmark's three workloads.

Each workload turns a config seed into inputs (`prepare`, untimed), runs
one call into the package (`call`, the timed span), checks the result
(`check`, untimed; returns failure messages) and serializes it
(`output_bytes`, untimed) so a re-run of the same call can be compared
byte for byte.  Constructing a workload imports the package, so the
worker counts that import as set-up time.

Exact values the paper gives are checked exactly.  Sampled rates are
checked against a two-sided bound of SIGMAS standard deviations: under
the normal approximation a correct program fails one such check with
probability about 2e-9.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

SIGMAS = 6.0


def derive_seed(seed: int, workload: str, index: int) -> int:
    """The 64-bit config seed of call `index` of a run (-1 is the warm-up).

    Every call gets its own seed, so a program that caches results by
    config cannot serve a timed call from an earlier one.
    """
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _near(value: float, p: float, n: int) -> bool:
    return abs(value - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / n)


def binomial_upper_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return 1.0 - sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k))


class LongSession:
    """One attacked protocol-1 session of 10^5 message bits, JSON report."""

    name = "long_session"
    message_length = 100_000
    rounds = 200_000  # message bits plus as many check bits (check_fraction 0.5)

    def __init__(self, workdir: Path):
        from qsdc import harness
        from qsdc.adversary import TrentStrategy
        from qsdc.protocol import EncodingVariant, ProtocolId

        self.harness = harness
        self.fixed = dict(
            protocol=ProtocolId.PROTOCOL_1,
            variant=EncodingVariant.REVISED,
            trent=TrentStrategy.attack(),
            message_length=self.message_length,
            check_fraction=0.5,
            rounds_repeat=1,
            output_format="json",
        )

    def prepare(self, seed: int):
        return self.harness.RunConfig(seed=seed, **self.fixed)

    def call(self, config):
        return self.harness.run_experiment(config).to_json()

    def output_bytes(self, config, text: str) -> bytes:
        return text.encode()

    def check(self, config, text: str) -> list[str]:
        report = json.loads(text)
        n_check = self.rounds - self.message_length
        error = report["bob_error_rate"]
        failures = [
            (report["config"]["seed"] == config.seed, "report echoes another seed"),
            (report["total_rounds"] == self.rounds, f"total_rounds {report['total_rounds']}"),
            (report["check_rounds"] == n_check, f"check_rounds {report['check_rounds']}"),
            (sum(report["histogram"].values()) == self.rounds, "histogram does not sum to total_rounds"),
            (report["z_equal_fraction"] == 1.0, f"z_equal_fraction {report['z_equal_fraction']} != 1"),
            (_near(report["trent_guess_accuracy"], 0.5, self.rounds), f"guess accuracy {report['trent_guess_accuracy']} not near 0.5"),
            (_near(error, 0.5, n_check), f"Bob's check error {error} not near 0.5"),
            (report["abort_fraction"] == float(error > 0.02), f"abort_fraction {report['abort_fraction']}"),
        ]
        return [message for ok, message in failures if not ok]


class ManySessions:
    """1000 honest protocol-2 sessions of 100 bits with 1% noise, CSV via the CLI."""

    name = "many_sessions"
    sessions = 1000
    bits = 100
    rounds = sessions * 2 * bits
    noise = 0.01
    threshold = 0.02
    # A session aborts when more than 2 of its 100 check bits flip.
    abort_probability = binomial_upper_tail(bits, noise, 3)

    def __init__(self, workdir: Path):
        from qsdc import cli

        self.cli = cli
        self.out = workdir / "many_sessions.csv"

    def prepare(self, seed: int) -> list[str]:
        return [
            "run", "--protocol", "2", "--variant", "revised", "--trent", "honest",
            "--bits", str(self.bits), "--check-fraction", "0.5",
            "--threshold", str(self.threshold), "--repeat", str(self.sessions),
            "--noise", str(self.noise), "--seed", str(seed),
            "--format", "csv", "--out", str(self.out),
        ]

    def call(self, argv: list[str]) -> int:
        return self.cli.main(argv)

    def output_bytes(self, argv, status: int) -> bytes:
        return self.out.read_bytes()

    def check(self, argv, status: int) -> list[str]:
        if status != 0:
            return [f"cli.main returned {status}"]
        rows = list(csv.reader(io.StringIO(self.out.read_text())))
        if rows[0] != ["row", "error_rate", "aborted", "guess_accuracy", "z_equal_fraction"]:
            return [f"unexpected CSV header {rows[0]}"]
        sessions, summary = rows[1:-1], rows[-1]
        if len(sessions) != self.sessions or summary[0] != "summary":
            return [f"{len(sessions)} session rows, expected {self.sessions}"]
        errors = [float(row[1]) * self.bits for row in sessions]
        aborted = [int(row[2]) for row in sessions]
        check_errors = round(sum(errors))
        error, aborts = float(summary[1]), float(summary[2])
        failures = [
            (all(abs(e - round(e)) < 1e-9 for e in errors), f"a session has other than {self.bits} check rounds"),
            (all(a == (e > self.threshold * self.bits) for a, e in zip(aborted, errors)), "abort flag disagrees with error rate"),
            (all(row[3] == row[4] == "" for row in rows[1:]), "honest run reports attack metrics"),
            (error == check_errors / (self.sessions * self.bits), f"summary error {error} is not the pooled session error"),
            (aborts == sum(aborted) / self.sessions, f"summary abort fraction {aborts} is not the session mean"),
            (_near(error, self.noise, self.sessions * self.bits), f"error rate {error} not near {self.noise}"),
            (_near(aborts, self.abort_probability, self.sessions), f"abort fraction {aborts} not near {self.abort_probability:.4f}"),
        ]
        return [message for ok, message in failures if not ok]


class RoundPaths:
    """Identities, tables, four 1000-bit transcript sessions and 4x100
    state-vector rounds: the only workload in which qsim and adversary work."""

    name = "round_paths"
    message_length = 1000
    statevector_rounds = 100

    def __init__(self, workdir: Path):
        import numpy as np

        from qsdc import adversary, harness, protocol, qsim
        from qsdc.adversary import AnnouncementPolicy, StrategyKind, TrentStrategy
        from qsdc.protocol import EncodingVariant, ProtocolId

        self.honest = StrategyKind.HONEST
        self.np, self.adversary, self.harness, self.protocol = np, adversary, harness, protocol
        self.atol = qsim.ATOL
        self.original = EncodingVariant.ORIGINAL
        p1, p2 = ProtocolId.PROTOCOL_1, ProtocolId.PROTOCOL_2
        self.configs = (
            (p1, EncodingVariant.ORIGINAL, TrentStrategy.attack()),
            (p1, EncodingVariant.REVISED, TrentStrategy.honest()),
            (p2, EncodingVariant.REVISED, TrentStrategy.attack(AnnouncementPolicy.UNIFORM_RANDOM)),
            (p2, EncodingVariant.ORIGINAL, TrentStrategy.attack(AnnouncementPolicy.GENUINE_MEASUREMENT)),
        )
        self.session_rounds = 2 * self.message_length
        self.rounds = len(self.configs) * (self.session_rounds + self.statevector_rounds)

    def prepare(self, seed: int):
        rng = self.np.random.default_rng(seed)
        message_bits = [rng.integers(0, 2, self.message_length) for _ in self.configs]
        round_bits = [
            [int(b) for b in rng.integers(0, 2, self.statevector_rounds)] for _ in self.configs
        ]
        return message_bits, round_bits, rng

    def call(self, inputs):
        message_bits, round_bits, rng = inputs
        protocol = self.protocol
        residuals = self.harness.verify_identities()
        tables = self.harness.emit_tables()
        sessions = []
        for (p, v, trent), bits in zip(self.configs, message_bits):
            plan = protocol.SessionPlan.build(bits, 0.5, rng)
            sessions.append((plan, protocol.run_session(p, v, plan, trent, rng)))
        rounds = [
            [protocol.run_round_statevector(p, v, bit, trent, rng) for bit in bits]
            for (p, v, trent), bits in zip(self.configs, round_bits)
        ]
        return residuals, tables, sessions, rounds

    def output_bytes(self, inputs, result) -> bytes:
        return repr(result).encode()

    def _exact(self, label, variant, trent, transcripts) -> list[str]:
        if trent.kind is self.honest:
            if any(t.decoded_bit != t.sent_bit for t in transcripts):
                return [f"{label}: honest noiseless rounds decoded wrongly"]
            return []
        guess, _, z_equal = self.adversary.attack_metrics(transcripts)
        if variant is self.original and guess != 1.0:
            return [f"{label}: original-encoding guess accuracy {guess} != 1"]
        if variant is not self.original and z_equal != 1.0:
            return [f"{label}: revised-encoding z-equal fraction {z_equal} != 1"]
        return []

    def check(self, inputs, result) -> list[str]:
        message_bits, round_bits, _ = inputs
        residuals, tables, sessions, rounds = result
        failures = []
        if len(residuals) != 16 or not all(r < self.atol for _, r in residuals):
            failures.append(f"identity residuals {residuals}")
        for key, rows in tables.items():
            for bit in (0, 1):
                total = sum(row[3] for row in rows if row[2] == bit)
                if abs(total - 1.0) >= self.atol:
                    failures.append(f"table {key} bit {bit} sums to {total}")
        for (p, v, trent), bits, (plan, (transcripts, _, _)) in zip(self.configs, message_bits, sessions):
            label = f"session {p.value}/{v.value}/{trent.kind.value}"
            sent = [t.sent_bit for t in transcripts if not t.is_check_bit]
            if len(transcripts) != self.session_rounds or sent != bits.tolist():
                failures.append(f"{label}: {len(transcripts)} rounds or wrong message bits")
            failures += self._exact(label, v, trent, transcripts)
        for (p, v, trent), bits, transcripts in zip(self.configs, round_bits, rounds):
            label = f"statevector {p.value}/{v.value}/{trent.kind.value}"
            if [t.sent_bit for t in transcripts] != bits:
                failures.append(f"{label}: wrong sent bits")
            failures += self._exact(label, v, trent, transcripts)
        return failures


WORKLOADS = {w.name: w for w in (LongSession, ManySessions, RoundPaths)}
