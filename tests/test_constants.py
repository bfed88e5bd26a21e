import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import (
    BubbleParams,
    Field,
    SystemParams,
    coercivity_lhs,
    coercivity_sweep,
    convexity_radius,
    measure_constants,
    minimize_quotient,
    ratio_formula,
    smallness_threshold,
    sobolev_quotient,
    talenti_bubble,
    vector_quotient,
    lp_norm,
)
from fracsys.constants import QUOTIENT_OPTS
from conftest import smooth_field


class TestRatioFormula:
    def test_equal_powers_give_two(self):
        assert ratio_formula(2.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        assert ratio_formula(1.7, 1.7) == pytest.approx(2.0, rel=1e-15)

    def test_three_one_closed_form(self):
        # 3^(1/4) + 3^(-3/4)
        assert ratio_formula(3.0, 1.0) == pytest.approx(1.7547653, rel=1e-7)
        assert ratio_formula(3.0, 1.0) == pytest.approx(3.0**0.25 + 3.0**-0.75, rel=1e-15)

    @given(
        alpha=st.floats(min_value=1.01, max_value=8.0),
        beta=st.floats(min_value=1.01, max_value=8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_swap_symmetry(self, alpha, beta):
        assert ratio_formula(alpha, beta) == pytest.approx(
            ratio_formula(beta, alpha), rel=1e-12
        )

    def test_boundary_power_admitted(self):
        # the closed form extends continuously to the boundary power 1
        assert ratio_formula(1.0, 3.0) == pytest.approx(ratio_formula(3.0, 1.0), rel=1e-14)

    def test_rejects_powers_below_one(self):
        with pytest.raises(ValueError):
            ratio_formula(0.99, 2.0)


class TestStrictness:
    def test_equal_powers(self):
        assert ratio_formula(2.0, 2.0) - 1 == pytest.approx(1.0, rel=1e-15)

    def test_three_one(self):
        assert ratio_formula(3.0, 1.0) - 1 == pytest.approx(0.7547653, rel=1e-7)

    @given(
        alpha=st.floats(min_value=1.01, max_value=6.0),
        beta=st.floats(min_value=1.01, max_value=6.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_positive(self, alpha, beta):
        assert ratio_formula(alpha, beta) - 1 > 0


class TestCoercivity:
    def test_symmetric_case(self):
        params = SystemParams(1, 0.25, 2.0, 2.0, 0)  # p = 4, K = 8
        assert coercivity_lhs(params, 1.0, 2.0) == pytest.approx(32.0, rel=1e-12)

    def test_three_one_case(self):
        params = SystemParams(1, 0.25, 3.0, 1.0, 0)  # K = 9
        got = coercivity_lhs(params, 1.0, ratio_formula(3.0, 1.0))
        assert got == pytest.approx(9.0 * ratio_formula(3.0, 1.0) ** 2, rel=1e-12)
        assert got == pytest.approx(27.7128, rel=1e-4)

    def test_swap_invariance(self):
        pa = SystemParams(1, 0.25, 2.5, 1.5, 0)
        pb = SystemParams(1, 0.25, 1.5, 2.5, 0)
        ra = coercivity_lhs(pa, 1.3, 1.3 * ratio_formula(2.5, 1.5))
        rb = coercivity_lhs(pb, 1.3, 1.3 * ratio_formula(1.5, 2.5))
        assert ra == pytest.approx(rb, rel=1e-12)

    @pytest.mark.parametrize("gamma,p", [(0, 4.0), (1, 3.0)])
    def test_sweep_margin_exceeds_two(self, gamma, p):
        rows = coercivity_sweep(SystemParams(1, 0.25, p / 2, p / 2, gamma), n_pairs=50)
        assert len(rows) == 50
        assert min(r[3] for r in rows) > 2.0
        # every pair sums to the base's coupling exponent, in its regime
        assert all(abs(a + b - p) <= 1e-12 for a, b, _, _ in rows)
        for a, b, ratio, margin in rows[::7]:
            assert ratio == ratio_formula(a, b)
            assert margin == coercivity_lhs(SystemParams(1, 0.25, a, b, gamma), 1.0, ratio)


class TestConvexityRadius:
    def test_critical_example(self):
        params = SystemParams(2, 0.5, 2.0, 2.0, 0)  # crit exp 4, K = 8
        assert convexity_radius(params, 1.0) == pytest.approx(0.70711, rel=1e-5)

    def test_subcritical_example(self):
        params = SystemParams(1, 0.25, 2.0, 2.0, 1)  # p = 4, K = 8
        assert convexity_radius(params, 1.0) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_scaling_in_constant(self):
        # at N = 2, s = 1/2 the radius is linear in the scalar constant
        params = SystemParams(2, 0.5, 2.0, 2.0, 0)
        assert convexity_radius(params, 2.0) == pytest.approx(
            2.0 * convexity_radius(params, 1.0), rel=1e-12
        )

    def test_swap_invariance(self):
        pa = SystemParams(1, 0.25, 2.8, 1.2, 0)
        pb = SystemParams(1, 0.25, 1.2, 2.8, 0)
        assert convexity_radius(pa, 1.4) == pytest.approx(convexity_radius(pb, 1.4), rel=1e-12)


class TestSmallnessThreshold:
    def test_symmetric_closed_form(self):
        params = SystemParams(1, 0.25, 2.0, 2.0, 0)
        r = convexity_radius(params, 1.0)
        d = smallness_threshold(params, 1.0, 2.0)
        # A = 1/2 - (1/8)(1/2)^2 = 15/32, d = A r / 2
        assert d == pytest.approx(15.0 / 64.0 * r, rel=1e-12)

    def test_boundary_energy_margin(self):
        # with both norms at d/2 the boundary lower bound A r^2 - r * d is
        # exactly half of A r^2
        params = SystemParams(1, 0.25, 2.0, 2.0, 0)
        r = convexity_radius(params, 1.7)
        d = smallness_threshold(params, 1.7, 3.4)
        A = 2.0 * d / r
        assert A * r**2 - r * d == pytest.approx(0.5 * A * r**2, rel=1e-12)

    def test_positive_whenever_margin_exceeds_two(self):
        params = SystemParams(1, 0.25, 2.5, 1.5, 1)
        ratio = ratio_formula(2.5, 1.5)
        assert coercivity_lhs(params, 1.0, ratio) > 2.0
        assert smallness_threshold(params, 1.0, ratio) > 0

    def test_raises_when_condition_fails(self):
        params = SystemParams(1, 0.25, 2.0, 2.0, 1)
        # a vector constant far below the scalar one breaks the bound
        with pytest.raises(ValueError):
            smallness_threshold(params, 1.0, 0.2)


class TestQuotients:
    def test_scalar_homogeneity(self, grid64, params_sub):
        rng = np.random.default_rng(31)
        u = smooth_field(grid64, rng)
        base = sobolev_quotient(u, params_sub)
        for t in (0.05, -2.0, 11.0):
            assert sobolev_quotient(t * u, params_sub) == pytest.approx(base, rel=1e-12)

    def test_scalar_zero_field_rejected(self, grid64, params_sub):
        with pytest.raises(ValueError):
            sobolev_quotient(Field(grid64, np.zeros(grid64.shape)), params_sub)

    def test_vector_equal_powers_factor_two(self, grid64, params_sub):
        rng = np.random.default_rng(32)
        w = smooth_field(grid64, rng)
        assert vector_quotient(w, w, params_sub) == pytest.approx(
            2.0 * sobolev_quotient(w, params_sub), rel=1e-12
        )

    def test_vector_rescaling_invariance(self, grid64):
        params = SystemParams(1, 0.25, 2.5, 1.5, 1)
        rng = np.random.default_rng(33)
        u, v = smooth_field(grid64, rng), smooth_field(grid64, rng)
        base = vector_quotient(u, v, params)
        for t in (0.1, 7.0):
            assert vector_quotient(t * u, t * v, params) == pytest.approx(base, rel=1e-12)

    def test_vector_vanishing_coupling_rejected(self, grid64):
        params = SystemParams(1, 0.25, 2.0, 2.0, 1)
        u = Field(grid64, np.zeros(grid64.shape))
        v = Field(grid64, np.ones(grid64.shape))
        with pytest.raises(ValueError):
            vector_quotient(u, v, params)


class TestMinimizeQuotient:
    def test_trace_monotone_nonincreasing(self, grid256, params_sub3):
        # the measure hook sees the value and the relative gap at the seed
        # and at every accepted point; the last gap met the tolerance
        values, gaps = [], []

        def record(q, ds, slope):
            values.append(q)
            gaps.append(slope / q)
            return gaps[-1]

        res = minimize_quotient(grid256, params_sub3, mode="scalar", measure=record)
        assert len(values) == res.iterations + 1
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert gaps[-1] <= QUOTIENT_OPTS.tol

    def test_vector_symmetric_powers_symmetric_pair(self, grid256, params_sub3):
        res = minimize_quotient(grid256, params_sub3, mode="vector")
        u, v = res.fields
        rel = lp_norm(u - v, 2) / lp_norm(u + v, 2)
        assert rel <= 1e-3

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (2.5, 1.5), (1.5, 1.5)])
    def test_ratio_against_formula(self, grid256, alpha, beta):
        params = SystemParams(1, 0.25, alpha, beta, 1)
        scalar = minimize_quotient(grid256, params, mode="scalar")
        vector = minimize_quotient(grid256, params, mode="vector")
        measured = vector.value / scalar.value
        assert measured == pytest.approx(ratio_formula(alpha, beta), rel=0.02)

    def test_scalar_value_matches_ground_state_route(self, params_sub3):
        from fracsys import subcritical_ground_state

        grid = make_grid_cached()
        res = minimize_quotient(grid, params_sub3, mode="scalar")
        w = subcritical_ground_state(grid, params_sub3)
        assert res.value == pytest.approx(sobolev_quotient(w, params_sub3), rel=0.02)

    def test_critical_regime_mean_zero_class(self, grid256, params_crit):
        # the critical minimization runs in the mean-zero class; its value
        # bounds the quotient of the mean-projected extremal profile
        res = minimize_quotient(grid256, params_crit, mode="scalar")
        u = res.fields[0]
        assert abs(u.values.mean()) <= 1e-12
        w = talenti_bubble(grid256, params_crit, BubbleParams(lam=1.0))
        shifted = Field(grid256, w.values - w.values.mean())
        assert res.value <= sobolev_quotient(shifted, params_crit) + 1e-12

    def test_critical_ratio_matches_formula(self, grid256, params_crit):
        scalar = minimize_quotient(grid256, params_crit, mode="scalar")
        vector = minimize_quotient(grid256, params_crit, mode="vector")
        assert vector.value / scalar.value == pytest.approx(2.0, rel=0.02)


def make_grid_cached():
    from fracsys import make_grid

    return make_grid(1, 256, 40.0)


class TestMeasureConstants:
    def test_report_consistency(self, grid256, params_sub3):
        rep = measure_constants(grid256, params_sub3)
        assert rep.ratio_measured == pytest.approx(rep.ratio_formula, rel=0.02)
        assert rep.coercivity_lhs > 2.0
        assert rep.radius > 0 and rep.threshold > 0
        assert rep.params.gamma == 1
        # threshold consistent with its defining margin
        K = (
            params_sub3.alpha**2
            + params_sub3.beta**2
            + params_sub3.alpha * params_sub3.beta
            - params_sub3.coupling_exponent
        )
        A = 0.5 - (1.0 / K) * (rep.s_scalar / rep.s_vector) ** (
            params_sub3.coupling_exponent / 2.0
        )
        assert rep.threshold == pytest.approx(A * rep.radius / 2.0, rel=1e-12)

    def test_derived_quantities_are_not_inputs(self, grid256, params_sub3):
        from fracsys import ConstantsReport

        rep = measure_constants(grid256, params_sub3)
        fields = (rep.s_scalar, rep.s_vector, grid256, params_sub3, rep.scalar_iterations)
        assert ConstantsReport(*fields) == rep
        with pytest.raises(TypeError):
            ConstantsReport(*fields, radius=1.0)
        assert list(rep.as_dict()) == [
            "s_scalar", "s_vector", "ratio_measured", "ratio_formula", "radius",
            "threshold", "coercivity_lhs", "regime", "grid_dimension", "grid_points",
            "grid_box_length", "scalar_iterations",
        ]

    @pytest.mark.parametrize("c", [0.9, 1.0, 1.3])
    def test_rescaled_constants_derive_their_own_r_and_d(self, grid256, params_sub3, c):
        import dataclasses

        rep = measure_constants(grid256, params_sub3)
        scaled = dataclasses.replace(rep, s_scalar=c * rep.s_scalar, s_vector=c * rep.s_vector)
        s, sv = scaled.s_scalar, scaled.s_vector
        assert scaled.radius == convexity_radius(params_sub3, s)
        assert scaled.threshold == smallness_threshold(params_sub3, s, sv)
        assert scaled.coercivity_lhs == coercivity_lhs(params_sub3, s, sv)
        assert scaled.ratio_measured == sv / s
        if c < 1:
            assert scaled.radius < rep.radius and scaled.threshold < rep.threshold

    def test_constants_failing_smallness_raise_at_construction(self, grid256, params_sub3):
        import dataclasses

        from fracsys import ConstantsReport

        rep = measure_constants(grid256, params_sub3)
        # a vector constant far below the scalar one makes A <= 0
        with pytest.raises(ValueError, match="smallness"):
            dataclasses.replace(rep, s_vector=0.1 * rep.s_scalar)
        with pytest.raises(ValueError, match="smallness"):
            ConstantsReport(1.0, 0.2, grid256, params_sub3, 0)

    @pytest.mark.parametrize(
        "s_scalar,s_vector,name",
        [
            (1.0, -1.0, "s_vector"),
            (1.0, 0.0, "s_vector"),
            (1.0, float("nan"), "s_vector"),
            (1.0, float("inf"), "s_vector"),
            (float("nan"), 2.0, "s_scalar"),
        ],
        ids=["negative", "zero", "nan", "inf", "nan-scalar"],
    )
    def test_constants_not_finite_and_positive_raise(self, grid256, params_sub3, s_scalar, s_vector, name):
        from fracsys import ConstantsReport

        # checked before the smallness condition, whose powers and quotients
        # would raise TypeError or ZeroDivisionError, or derive a nan or a
        # degenerate threshold
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            ConstantsReport(s_scalar, s_vector, grid256, params_sub3, 0)

    @pytest.mark.parametrize(
        "N,points,length,s,alpha,beta,gamma",
        [
            (1, 256, 40.0, 0.25, 1.8, 1.2, 1),
            (1, 256, 40.0, 0.25, 2.5, 1.5, 0),
            (2, 32, 20.0, 0.5, 2.2, 1.4, 1),
            (2, 32, 20.0, 0.5, 2.4, 1.6, 0),
        ],
        ids=["1d-gamma1", "1d-gamma0", "2d-gamma1", "2d-gamma0"],
    )
    def test_vector_constant_is_ratio_times_scalar(self, N, points, length, s, alpha, beta, gamma):
        from fracsys import make_grid

        rep = measure_constants(make_grid(N, points, length), SystemParams(N, s, alpha, beta, gamma))
        expect = ratio_formula(alpha, beta) * rep.s_scalar
        assert abs(rep.s_vector - expect) <= 1e-13 * expect

    # extreme powers where a cold vector descent stops on a plateau far from
    # the closed form (ratio 2.2175 against 1.5016 for the first pair)
    @pytest.mark.parametrize(
        "alpha,beta",
        [(16.78388088995691, 2.751889333857793), (2.7022000093501655, 16.43149293479642)],
    )
    def test_seeded_vector_constant_holds_ratio_at_extreme_powers(self, grid256, alpha, beta):
        params = SystemParams(1, 0.45, alpha, beta, 1)
        rep = measure_constants(grid256, params)
        assert abs(rep.ratio_measured - rep.ratio_formula) <= 1e-6

    @pytest.mark.parametrize(
        "alpha,beta",
        [(16.78388088995691, 2.751889333857793), (2.7022000093501655, 16.43149293479642)],
    )
    def test_cold_vector_descent_reaches_ratio_at_extreme_powers(self, grid256, alpha, beta):
        # a cold start crosses a plateau here, where a stop on the value's
        # relative drop ends with the ratio 0.48 off
        params = SystemParams(1, 0.45, alpha, beta, 1)
        scalar = minimize_quotient(grid256, params, mode="scalar")
        vector = minimize_quotient(grid256, params, mode="vector")
        measured = vector.value / scalar.value
        assert abs(measured - ratio_formula(alpha, beta)) <= 1e-6 * ratio_formula(alpha, beta)


class TestMinimizeQuotientErrors:
    def test_bad_mode_rejected(self, grid64, params_sub3):
        with pytest.raises(ValueError):
            minimize_quotient(grid64, params_sub3, mode="tensor")

    def test_exhausted_iterations_raise(self, grid256, params_sub3):
        from fracsys import ConvergenceError, MinimizeOpts

        with pytest.raises(ConvergenceError):
            minimize_quotient(
                grid256, params_sub3, mode="scalar",
                opts=MinimizeOpts(tol=0.0, max_iter=2),
            )


class TestMinimizeOptsValidation:
    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(tol=-1.0), "tol"),
            (dict(tol=float("nan")), "tol"),
            (dict(tol=float("inf")), "tol"),
            (dict(max_iter=0), "max_iter"),
            (dict(max_iter=-5), "max_iter"),
        ],
    )
    def test_bad_values_rejected(self, kw, match):
        from fracsys import MinimizeOpts

        with pytest.raises(ValueError, match=match):
            MinimizeOpts(**kw)

    def test_zero_tol_and_one_iteration_accepted(self):
        from fracsys import MinimizeOpts

        assert MinimizeOpts(tol=0.0, max_iter=1) == MinimizeOpts(0.0, 1)
