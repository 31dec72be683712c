"""Variational solver for the free-particle action eigenvalue.

The package evolves quadratic wave-functional coefficients along world
lines, evaluates the action eigenvalue in three independent forms, finds
its stationary point over initial data and invariant duration, and checks
that the stationary value reproduces the classical extremal action.
"""

__version__ = "0.1.0"
