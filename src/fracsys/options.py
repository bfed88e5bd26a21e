"""Shared iteration options and solver exceptions."""

from __future__ import annotations

from dataclasses import dataclass


class ConvergenceError(RuntimeError):
    """An iterative solve ran out of iterations before meeting its tolerance."""


@dataclass(frozen=True)
class MinimizeOpts:
    """Knobs for the descent loops.

    tol is interpreted by each loop: gradient L2 norm for the system solve
    and the ground-state residual, relative value change per iteration for
    quotient minimization.
    """

    tol: float = 1e-8
    max_iter: int = 10000
    step0: float = 1.0
    armijo: float = 1e-4
    max_step: float = 4.0
