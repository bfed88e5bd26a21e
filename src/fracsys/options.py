"""Shared iteration options and solver exceptions."""

from __future__ import annotations

from dataclasses import dataclass


class ConvergenceError(RuntimeError):
    """An iterative solve ran out of iterations before meeting its tolerance."""


@dataclass(frozen=True)
class MinimizeOpts:
    """Stopping rule for the descent loops.

    tol is interpreted by each loop: gradient L2 norm for the system solve
    and the ground-state residual, relative value change per iteration for
    quotient minimization.
    """

    tol: float = 1e-8
    max_iter: int = 10000


# step policy of the descent loops: a search starts at STEP0, and each
# accepted step grows the next trial by 1.5 up to MAX_STEP
STEP0 = 1.0
MAX_STEP = 4.0
