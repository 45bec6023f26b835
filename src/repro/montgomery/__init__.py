"""Montgomery modular multiplication.

The platform performs every modular multiplication with Montgomery's
algorithm (Section 2.3 of the paper), in the FIOS word-scanning form
(Algorithm 1) and, across coprocessor cores, with the carry-local parallel
schedule of Fan/Sakiyama/Verbauwhede (SIPS 2007) illustrated in Fig. 5.

This package contains the pure-software reference models; the cycle-accurate
microcode that runs on the simulated coprocessor lives in
:mod:`repro.soc.microcode` and is validated against these models.
"""

from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.fios import (
    FiosBatchStats,
    FiosTrace,
    fios_batch_stats,
    fios_multiply,
    fios_trace,
)
from repro.montgomery.variants import sos_multiply, cios_multiply
from repro.montgomery.parallel import ParallelFiosSchedule, parallel_fios_multiply
from repro.montgomery.exponent import montgomery_power

__all__ = [
    "MontgomeryDomain",
    "FiosTrace",
    "FiosBatchStats",
    "fios_batch_stats",
    "fios_multiply",
    "fios_trace",
    "sos_multiply",
    "cios_multiply",
    "ParallelFiosSchedule",
    "parallel_fios_multiply",
    "montgomery_power",
]
