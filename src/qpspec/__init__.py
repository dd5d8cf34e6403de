"""Numerical toolkit for quasi-parabolic composition operators on
discretized Hardy spaces: the operator series and its closed-form cross-check,
pseudospectral surrogates, and spiral-set containment checks."""

__version__ = "0.1.0"
