"""Moments, conjugate variables and free Fisher information for
time-indexed semicircular families under a modular flow.

Import each name from the module that defines it
(``from ncfisher.conjugate import solve_conjugate``); ``from ncfisher
import moments`` imports the submodule.  ``build_model`` is also bound
here, for the benchmark's set-up probe.
"""

from .model import build_model

__all__ = ["build_model"]

__version__ = "0.1.0"
