"""Shared iteration options, the descent engine and the library's exceptions."""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ConfigError(ValueError):
    """A problem, grid, density or profile that cannot be posed (exit 2 on the command line)."""


def check_square(name, x):
    """Refuse x unless x**2 is a normal double, which the Gaussian density
    and the bubble divide by without overflow or division by zero."""
    x = float(x)
    if not sys.float_info.min <= x * x <= sys.float_info.max:
        raise ConfigError(f"{name} squared leaves the double range, got {x}")


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before meeting its tolerance."""


@dataclass(frozen=True)
class MinimizeOpts:
    """Stopping rule for ``descend``: at most max_iter accepted steps, and
    stop once the loop's first-order measure is at most tol.  That measure
    is the gradient L2 norm in the system solve; the Armijo slope over the
    value, 2 |d|^2 / Q, a first-order estimate of the relative gap to the
    minimum, in quotient minimization; the residual of the ground-state
    equation at the rescaled quotient minimizer for the ground state.
    """

    tol: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


# step policy: a search starts at STEP0, halves until the value drops by
# ARMIJO * tau * slope, and each accepted step grows the next trial by 1.5
# up to MAX_STEP
ARMIJO = 1e-4
STEP0 = 1.0
MAX_STEP = 4.0


class Descent(NamedTuple):
    point: object
    value: float
    measure: float
    iterations: int
    converged: bool


def descend(point, evaluate, gradient, direction, retract, opts):
    """Preconditioned descent with Armijo backtracking from ``point`` until
    the first-order measure is at most opts.tol.  The caller supplies
      evaluate(point) -> (value, state the gradient reuses, or None),
      gradient(point, value, state) -> (grad, measure),
      direction(point, grad) -> (d, slope), the value falling at rate slope,
      retract(point, d, tau) -> the feasible point tau along -d; a
        ValueError there rejects the trial.
    Below 32 ulps of the value no Armijo decrease can be certified; there
    the full step tau = 1, each caller's fixed-point map, is accepted while
    it shrinks the measure.  ``iterations`` counts accepted steps, and
    ``converged`` is false when they run out or the full step fails.  The
    spent gradient and state, the spent direction and each rejected trial
    are dropped before the next large array is built.

    These lifetimes let a caller keep every array of the loop in storage
    it owns and writes in place:
      - at most two points live at once, the current one and one trial, so
        each trial can be built in the storage the current point does not
        use, over the last rejected trial;
      - a point's state lives from its evaluate to its gradient, or to its
        rejection, so one storage serves every point's state;
      - a gradient lives until its direction is taken, and a direction
        until the next gradient is asked for, so each may be written over
        the other's storage.
    The returned point is the last accepted one, untouched since; its
    state is not kept.
    """
    value, state = evaluate(point)
    grad, measure = gradient(point, value, state)
    tau = STEP0
    for it in range(opts.max_iter):
        if measure <= opts.tol:
            return Descent(point, value, measure, it, True)
        d, slope = direction(point, grad)
        del grad, state
        floor = 32.0 * sys.float_info.epsilon * max(abs(value), 1e-30)
        trial = None
        for _ in range(60):
            if ARMIJO * tau * slope <= floor:
                break
            try:
                trial = retract(point, d, tau)
            except ValueError:
                tau *= 0.5
                continue
            t_value, state = evaluate(trial)
            if t_value <= value - ARMIJO * tau * slope:
                tau = min(tau * 1.5, MAX_STEP)
                break
            trial = state = None
            tau *= 0.5
        full = trial is None
        if full:
            try:
                trial = retract(point, d, 1.0)
            except ValueError:
                return Descent(point, value, measure, it, False)
            t_value, state = evaluate(trial)
            tau = STEP0
        del d
        grad, t_measure = gradient(trial, t_value, state)
        if full and not t_measure < measure:
            return Descent(point, value, measure, it, False)
        point, value, measure = trial, t_value, t_measure
    return Descent(point, value, measure, opts.max_iter, measure <= opts.tol)


def sequential(fa, fb):
    """Run the two halves of a step in turn: (fa(), fb())."""
    return fa(), fb()


class _Lane:
    """A worker thread that runs the second half of each step while the
    caller runs the first.  Two locks hand the task over and back, so the
    worker sleeps between steps."""

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._result = None
        self._thread = threading.Thread(target=self._serve, name="fracsys-lane", daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            self._go.acquire()
            if self._task is None:
                return
            fn, err = self._task
            self._task = None
            try:
                # numpy's error state is local to each thread
                with np.errstate(**err):
                    self._result = fn(), None
            except BaseException as exc:
                self._result = None, exc
            self._done.release()

    def both(self, fa, fb):
        """(fa(), fb()), fb on the worker.  Waits for the worker before it
        returns or raises, so neither half outlives the call; an exception
        of fa wins over one of fb."""
        self._task = fb, np.geterr()
        self._go.release()
        try:
            a = fa()
        finally:
            self._done.acquire()
            (b, exc), self._result = self._result, None
        if exc is not None:
            raise exc
        return a, b

    def close(self):
        self._go.release()
        self._thread.join()


@contextmanager
def lanes(on):
    """A runner ``both(fa, fb) -> (fa(), fb())`` for steps that come in two
    independent halves, each writing only its own outputs.  When ``on``,
    fb runs on a worker thread while the caller runs fa, and the worker is
    joined on exit; otherwise the halves run in turn.  Either way each half
    does the same arithmetic, so the results keep their bits."""
    if not on:
        yield sequential
        return
    lane = _Lane()
    try:
        yield lane.both
    finally:
        lane.close()


class Ritz(NamedTuple):
    value: float
    residual: float
    iterations: int


def lanczos_max(apply, inner, start, tol, max_iter):
    """Largest eigenvalue of a linear map ``apply``, self-adjoint in the
    inner product ``inner``, by the Lanczos three-term recurrence from the
    vector ``start``, a numpy array that is normalized in place and becomes
    the first Lanczos vector; the others are arrays of its shape.

    Each step takes one ``apply`` and extends the tridiagonal matrix T of
    the Krylov space; its largest eigenvalue theta is the Ritz value, with
    eigenvector s.  The step's residual beta_k |s_k| is the norm of
    apply(y) - theta y for the Ritz vector y, so some eigenvalue lies within
    it of theta (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
    ch. 13).  The loop stops once that residual is at most tol * |theta|,
    or after max_iter steps, and returns the last Ritz value, residual and
    step count.  Theta is a Rayleigh quotient, so it never exceeds the
    largest eigenvalue.

    There is no reorthogonalization: only the last two Lanczos vectors and
    the new one are held.  Lost orthogonality shows only as copies of
    converged Ritz values, which leaves the largest one and its residual
    valid.
    """
    q = start
    q /= math.sqrt(inner(q, q))
    spare = np.zeros_like(q)  # the previous Lanczos vector, then scratch
    alphas, betas = [], []
    beta = 0.0
    for k in range(1, max_iter + 1):
        w = apply(q)
        spare *= beta
        w -= spare
        alpha = inner(w, q)
        w -= np.multiply(alpha, q, out=spare)
        beta = math.sqrt(max(inner(w, w), 0.0))
        alphas.append(alpha)
        betas.append(beta)
        t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
        thetas, vectors = np.linalg.eigh(t)
        theta, residual = float(thetas[-1]), beta * abs(float(vectors[-1, -1]))
        if residual <= tol * abs(theta) or k == max_iter:
            return Ritz(theta, residual, k)
        w /= beta
        spare, q = q, w
