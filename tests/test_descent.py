"""The descent engine on a 1-D convex quadratic, where every step is exact
arithmetic on floats and the minimizer is known."""

import pytest

from fracsys.options import STEP0, MinimizeOpts, descend

CENTER = 0.75


def quadratic(offset=0.0, precondition=1.0, infeasible_above=None, measure_floor=0.0):
    """f(x) = offset + (x - CENTER)^2 / 2 with measure |f'(x)| + measure_floor
    and the direction f'(x) / precondition; records every trial step."""
    taus = []

    def evaluate(x):
        return offset + 0.5 * (x - CENTER) ** 2, None

    def gradient(x, value, state):
        g = x - CENTER
        return g, abs(g) + measure_floor

    def direction(x, g):
        d = g / precondition
        return d, g * d

    def retract(x, d, tau):
        taus.append(tau)
        if infeasible_above is not None and tau > infeasible_above:
            raise ValueError("outside the feasible set")
        return x - tau * d

    return (evaluate, gradient, direction, retract), taus


def test_converges_to_its_measure():
    problem, taus = quadratic(precondition=3.0)
    res = descend(0.0, *problem, MinimizeOpts(tol=1e-6, max_iter=100))
    assert res.converged
    assert res.measure <= 1e-6
    assert res.point == pytest.approx(CENTER, abs=1e-6)
    assert 0 < res.iterations <= 30
    # accepted steps grow the next trial
    assert taus[0] == STEP0 and max(taus) > STEP0


def test_a_retract_raising_valueerror_halves_the_step():
    problem, taus = quadratic(infeasible_above=0.3)
    res = descend(0.0, *problem, MinimizeOpts(tol=1e-8, max_iter=100))
    assert res.converged
    assert taus[:3] == [1.0, 0.5, 0.25]


def test_full_step_fallback_below_round_off():
    # at this offset no decrease of the quadratic exceeds 32 ulps of the
    # value, so Armijo certifies nothing; the full step, a contraction by
    # 1/2 here, is accepted while it shrinks the measure
    problem, taus = quadratic(offset=1e6, precondition=2.0)
    res = descend(CENTER - 1e-3, *problem, MinimizeOpts(tol=1e-12, max_iter=200))
    assert res.converged
    assert res.measure <= 1e-12
    assert set(taus) == {1.0}
    assert res.iterations == len(taus)


def test_failed_full_step_stops_unconverged():
    # a tol below the measure's floor: the loop stops once the full step no
    # longer shrinks the measure, not at max_iter
    problem, taus = quadratic(offset=1e6, precondition=2.0, measure_floor=1e-13)
    res = descend(CENTER - 1e-3, *problem, MinimizeOpts(tol=1e-14, max_iter=10000))
    assert not res.converged
    assert res.iterations < 10000
    assert len(taus) == res.iterations + 1


def test_exhausted_iterations_unconverged():
    problem, _ = quadratic(precondition=3.0)
    res = descend(0.0, *problem, MinimizeOpts(tol=1e-12, max_iter=2))
    assert not res.converged
    assert res.iterations == 2
