"""The numpy and Python versions the files under tests/data were pinned with.

Every report pin holds draws of numpy's `Generator.multinomial` and
`Generator.binomial`.  NEP 19, numpy's random-number policy, keeps the
bit-generator streams stable but lets `Generator` methods change their
algorithms between feature releases.  So each pin test names both the
versions the pins were made with and the running ones when it fails: a
stream change then reads as one, not as a defect.  No pin is skipped or
loosened on a version mismatch.
"""
import platform

import numpy as np

PINNED_WITH = "numpy 2.4.6, Python 3.11.7"


def versions() -> str:
    """The failure message of a pin test."""
    running = f"numpy {np.__version__}, Python {platform.python_version()}"
    return f"pins made with {PINNED_WITH}; running {running}"
