"""Bayesian GARCH(1,1) estimation by MCMC with an adaptively fitted
multivariate Student-t independence proposal."""
from .model import ParamVector, check_constraints, compute_volatility, log_likelihood, log_posterior
from .proposal import SampleAccumulator, StudentTProposal, fit
from .samplers import (
    AdaptiveSchedule,
    Chain,
    MetropolisConfig,
    run_adaptive,
    run_metropolis,
)
from .diagnostics import DiagnosticsReport, acf, summarize, tau_int

__version__ = "0.1.0"

__all__ = [
    "ParamVector",
    "check_constraints",
    "compute_volatility",
    "log_likelihood",
    "log_posterior",
    "SampleAccumulator",
    "StudentTProposal",
    "fit",
    "AdaptiveSchedule",
    "Chain",
    "MetropolisConfig",
    "run_adaptive",
    "run_metropolis",
    "DiagnosticsReport",
    "acf",
    "summarize",
    "tau_int",
    "__version__",
]
