"""The numpy and Python versions the files under tests/data were pinned with.

Every report pin holds draws of numpy's `Generator.multinomial` and
`Generator.binomial`.  NEP 19, numpy's random-number policy, keeps the
bit-generator streams stable but lets `Generator` methods change their
algorithms between feature releases.  So each pin test names both the
versions the pins were made with and the running ones when it fails, and
points at `test_generator_stream_holds`, which pins each method's stream
alone (tests/data/generator_streams.json): a stream change then reads as
the method that moved, not as a defect.  No pin is skipped or loosened on
a version mismatch.
"""
import hashlib
import platform

import numpy as np

PINNED_WITH = "numpy 2.4.6, Python 3.11.7"
STREAM_SEED = 9  # the seed of CI's pinned reports

# wrong and correct check rounds of 1000 sessions of 7000 check rounds:
# n * q spans both of numpy's binomial algorithms (inversion below 30, BTPE above)
_WRONG_CHECKS = 7 * np.arange(1000)

# Each `Generator` call the pins rest on, at the shape the package makes it:
# `run_session` and `run_round_statevector` draw `random`, `SessionPlan.build`
# `integers` and `choice`, and `harness.run_experiment` `multinomial` and its two
# `binomial` flips of the wrong and the correct check rounds.
GENERATOR_CALLS = {
    "random(1000)": lambda g: g.random(1000),
    "integers(0, 2, 1000)": lambda g: g.integers(0, 2, 1000),
    "choice(2000, 1000, replace=False)": lambda g: g.choice(2000, 1000, replace=False),
    "multinomial([100, 100], [1/4] * 4, (1000, 2))": lambda g: g.multinomial([100, 100], [0.25] * 4, (1000, 2)),
    "binomial(wrong_checks, 0.05)": lambda g: g.binomial(_WRONG_CHECKS, 0.05),
    "binomial(7000 - wrong_checks, 0.05)": lambda g: g.binomial(7000 - _WRONG_CHECKS, 0.05),
}


def versions() -> str:
    """The failure message of a pin test."""
    running = f"numpy {np.__version__}, Python {platform.python_version()}"
    return (f"pins made with {PINNED_WITH}; running {running}; "
            "test_generator_stream_holds names any Generator method whose stream moved")


def stream_digest(call: str) -> str:
    """sha256 of the call's output on a fresh generator seeded STREAM_SEED,
    as little-endian 8-byte floats or integers."""
    values = np.asarray(GENERATOR_CALLS[call](np.random.default_rng(STREAM_SEED)))
    return hashlib.sha256(values.astype("<f8" if values.dtype.kind == "f" else "<i8").tobytes()).hexdigest()
