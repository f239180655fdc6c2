"""Driven three-level lambda-system dynamics: Magnus-expansion propagators
in Hilbert and Liouville space, periodic-driving acceleration, spectral-gap
and CPTP diagnostics, and rotating-wave-approximation error audits.

The package namespace holds the quick-start API; everything else is
imported from its module (``lamsim.model``, ``lamsim.periodic``, ...)."""

from .magnus import MagnusOrder
from .model import LambdaParams, preset
from .sweep import run_case, rwa_error_curve, steady_state_summary

__version__ = "0.1.0"

__all__ = ["LambdaParams", "MagnusOrder", "preset", "run_case",
           "rwa_error_curve", "steady_state_summary"]
