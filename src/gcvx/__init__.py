"""Exact-arithmetic workbench for probability-measure monads and convex
spaces at finite scale."""

from .kernel import CapacityError, DomainError, Rat, StepFn, rat, rat_str
from .measurable import FinMeasSpace, MeasFn, generate_sigma
from .giry import FinDist, DistOverDists, dirac, mu, pushforward
from .convex import GeomCvx, SemiCvx
from .reports import LawReport
from .suites import run_suite

__all__ = [
    "CapacityError", "DomainError", "Rat", "StepFn", "rat", "rat_str",
    "FinMeasSpace", "MeasFn", "generate_sigma",
    "FinDist", "DistOverDists", "dirac", "mu", "pushforward",
    "GeomCvx", "SemiCvx", "LawReport", "run_suite",
]

__version__ = "0.1.0"
