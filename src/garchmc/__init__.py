"""Bayesian GARCH(1,1) estimation by MCMC with an adaptively fitted
multivariate Student-t independence proposal."""
import os

# Every BLAS call garchmc makes is 3 wide (a 3x3 Cholesky factor, (k, 3) @
# (3, 3)), so an OpenBLAS worker thread never has work, and one thread gives
# the same bytes. Started by numpy's import, the worker busy-waits beside the
# importing thread for about 110 ms and slows it while the CPUs contend:
# ``import numpy`` took 93-102 ms against 47-50 ms without it (2-vCPU Xeon).
# Set before the first numpy import; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .proposal import SampleAccumulator, StudentTProposal, fit
from .samplers import AdaptiveSchedule, run_adaptive, run_metropolis
from .diagnostics import acf, report_text, summarize, tau_int

__version__ = "0.1.0"

__all__ = [
    "SampleAccumulator",
    "StudentTProposal",
    "fit",
    "AdaptiveSchedule",
    "run_adaptive",
    "run_metropolis",
    "acf",
    "report_text",
    "summarize",
    "tau_int",
    "__version__",
]
