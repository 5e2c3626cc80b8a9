"""Bayesian GARCH(1,1) estimation by MCMC with an adaptively fitted
multivariate Student-t independence proposal."""
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
