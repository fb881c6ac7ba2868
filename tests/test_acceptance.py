"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single pass/fail
line (visible with `pytest -s` or on failure).  Expected values marked
as oracle-derived were computed with the independent brute-force
enumeration in oracle.py and are re-checked here before use.
"""
import time

import numpy as np
import pytest

import oracle
from qsdc.adversary import TrentStrategy
from qsdc.harness import RunConfig, emit_tables, run_experiment, verify_identities
from qsdc.protocol import (
    EncodingVariant,
    ProtocolId,
    round_distribution,
)
from qsdc.qsim import BellOutcome, XOutcome

P1, P2 = ProtocolId.PROTOCOL_1, ProtocolId.PROTOCOL_2
ORIGINAL, REVISED = EncodingVariant.ORIGINAL, EncodingVariant.REVISED
ALL_COMBOS = [(p, v) for p in ProtocolId for v in EncodingVariant]

# Exact per-round check-bit error probability under attack, for every
# (protocol, variant) pair with the default announcement policies.
# Computed by oracle.attacked_error_probability and re-verified below.
ATTACKED_ERROR_PROBABILITY = 0.5


def report_line(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed ({detail})"


def test_criterion_1_equation_suite():
    start = time.perf_counter()
    results = verify_identities()
    elapsed = time.perf_counter() - start
    worst = max(residual for _, residual in results)
    ok = len(results) == 16 and worst < 1e-12 and elapsed < 1.0
    report_line(
        "criterion 1 (equation suite)",
        ok,
        f"16 identities, worst residual {worst:.2e}, {elapsed*1000:.0f} ms",
    )


def test_criterion_2_honest_correctness():
    failures = []
    for protocol, variant in ALL_COMBOS:
        # 10^4 sampled rounds with zero decode errors
        report = run_experiment(
            RunConfig(protocol=protocol, variant=variant, message_length=5000, seed=2024)
        )
        if report.total_rounds < 10_000 or report.bob_error_rate != 0.0:
            failures.append(f"{protocol.name}/{variant.name} sampled")
        # exact enumeration: P(correct) = 1 per bit
        for bit in (0, 1):
            _, branches = round_distribution(protocol, variant, bit, TrentStrategy.honest())
            p_correct = sum(b.probability for b in branches if b.transcript.decoded_bit == bit)
            if abs(p_correct - 1.0) > 1e-9:
                failures.append(f"{protocol.name}/{variant.name} exact bit {bit}")

    # published revised-table rows, reproduced row for row
    p1_rows = {
        (ann, meas): bit
        for ann, meas, bit, _ in emit_tables()[P1, REVISED]
    }
    expected_p1 = {
        (XOutcome.PLUS, BellOutcome.PHI_PLUS): 1,
        (XOutcome.PLUS, BellOutcome.PSI_MINUS): 1,
        (XOutcome.PLUS, BellOutcome.PHI_MINUS): 0,
        (XOutcome.PLUS, BellOutcome.PSI_PLUS): 0,
        (XOutcome.MINUS, BellOutcome.PHI_PLUS): 0,
        (XOutcome.MINUS, BellOutcome.PSI_MINUS): 0,
        (XOutcome.MINUS, BellOutcome.PHI_MINUS): 1,
        (XOutcome.MINUS, BellOutcome.PSI_PLUS): 1,
    }
    if p1_rows != expected_p1:
        failures.append("protocol 1 revised table")
    p2_rows = {
        (ann, meas): bit
        for ann, meas, bit, _ in emit_tables()[P2, REVISED]
    }
    expected_p2 = {
        (BellOutcome.PHI_PLUS, XOutcome.PLUS): 1,
        (BellOutcome.PSI_MINUS, XOutcome.PLUS): 1,
        (BellOutcome.PHI_PLUS, XOutcome.MINUS): 0,
        (BellOutcome.PSI_MINUS, XOutcome.MINUS): 0,
        (BellOutcome.PHI_MINUS, XOutcome.PLUS): 0,
        (BellOutcome.PSI_PLUS, XOutcome.PLUS): 0,
        (BellOutcome.PHI_MINUS, XOutcome.MINUS): 1,
        (BellOutcome.PSI_PLUS, XOutcome.MINUS): 1,
    }
    if p2_rows != expected_p2:
        failures.append("protocol 2 revised table")

    report_line(
        "criterion 2 (honest correctness)",
        not failures,
        "error rate 0 over 10^4 rounds x4, tables reproduced" if not failures else str(failures),
    )


def test_criterion_3_original_variant_leak():
    failures = []
    for protocol in ProtocolId:
        report = run_experiment(
            RunConfig(
                protocol=protocol,
                variant=ORIGINAL,
                trent=TrentStrategy.attack(),
                message_length=5000,
                seed=7,
            )
        )
        if report.total_rounds < 10_000 or report.trent_guess_accuracy != 1.0:
            failures.append(f"{protocol.name}: accuracy {report.trent_guess_accuracy}")
    report_line(
        "criterion 3 (original-variant leak)",
        not failures,
        "guess accuracy 1.0 over 10^4 bits, both protocols" if not failures else str(failures),
    )


def test_criterion_4_revised_variant_fix():
    failures = []
    for protocol in ProtocolId:
        report = run_experiment(
            RunConfig(
                protocol=protocol,
                variant=REVISED,
                trent=TrentStrategy.attack(),
                message_length=5000,
                seed=8,
            )
        )
        if report.z_equal_fraction != 1.0:
            failures.append(f"{protocol.name}: z_equal {report.z_equal_fraction}")
        sigma = 0.005  # binomial sigma at n = 10^4
        if abs(report.trent_guess_accuracy - 0.5) > 3 * sigma:
            failures.append(f"{protocol.name}: accuracy {report.trent_guess_accuracy}")
        # exact enumeration: attacker's transcript distribution is identical
        # for sent bits 0 and 1
        view0 = oracle.adversary_view(protocol.value, "revised", 0)
        view1 = oracle.adversary_view(protocol.value, "revised", 1)
        if set(view0) != set(view1) or any(
            abs(view0[k] - view1[k]) > 1e-12 for k in view0
        ):
            failures.append(f"{protocol.name}: views differ")
    report_line(
        "criterion 4 (revised-variant fix)",
        not failures,
        "z outcomes always equal, guess accuracy ~0.5, bit-independent view"
        if not failures
        else str(failures),
    )


def test_criterion_5_detection():
    # re-verify the pinned oracle value before relying on it
    for protocol in (1, 2):
        for variant in ("original", "revised"):
            for bit in (0, 1):
                exact = oracle.attacked_error_probability(protocol, variant, bit)
                assert exact == pytest.approx(ATTACKED_ERROR_PROBABILITY, abs=1e-12)

    failures = []
    for protocol, variant in ALL_COMBOS:
        report = run_experiment(
            RunConfig(
                protocol=protocol,
                variant=variant,
                trent=TrentStrategy.attack(),
                message_length=5000,
                seed=99,
            )
        )
        sigma = np.sqrt(
            ATTACKED_ERROR_PROBABILITY
            * (1 - ATTACKED_ERROR_PROBABILITY)
            / report.check_rounds
        )
        if abs(report.bob_error_rate - ATTACKED_ERROR_PROBABILITY) > 3 * sigma:
            failures.append(
                f"{protocol.name}/{variant.name}: error {report.bob_error_rate}"
            )

    # 100 independent seeds, 10^3 check bits each, default threshold
    abort_count = 0
    for seed in range(100):
        report = run_experiment(
            RunConfig(
                protocol=P1,
                variant=ORIGINAL,
                trent=TrentStrategy.attack(),
                message_length=1000,
                check_fraction=0.5,
                seed=seed,
            )
        )
        abort_count += report.abort_fraction == 1.0
    if abort_count != 100:
        failures.append(f"abort in {abort_count}/100 repetitions")

    report_line(
        "criterion 5 (detection)",
        not failures,
        f"error rates within 3 sigma of {ATTACKED_ERROR_PROBABILITY}, abort 100/100"
        if not failures
        else str(failures),
    )


def test_criterion_6_determinism_and_performance():
    config = RunConfig(
        protocol=P1,
        variant=ORIGINAL,
        trent=TrentStrategy.attack(),
        message_length=50_000,
        seed=31337,
    )
    start = time.perf_counter()
    first = run_experiment(config)
    elapsed = time.perf_counter() - start
    second = run_experiment(config)
    identical = first.to_json() == second.to_json()
    fast_enough = first.total_rounds >= 100_000 and elapsed < 10.0
    report_line(
        "criterion 6 (determinism and performance)",
        identical and fast_enough,
        f"byte-identical reports, {first.total_rounds} rounds in {elapsed:.2f} s",
    )
