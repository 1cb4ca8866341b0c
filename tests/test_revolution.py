"""Revolution bodies: closed forms, sharp cone bound, moment inequality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pettylab import (InputError, RevolutionBody, axis_ratio, ball_volume,
                      berwald_check, cone_bound, rev_second_proj_axis,
                      rev_volume)
from pettylab.revolution import (ball_petty_value, ball_volumes,
                                 profile_power_integral, rev_to_polytope)
from pettylab import fixtures
from pettylab.bodies import body_from_dict, body_to_dict
from pettylab.symmetrize import schwartz

SQ_E_2PI = math.sqrt(math.e / (2.0 * math.pi))


def ball_profile(n=801):
    s = np.linspace(-1.0, 1.0, n)
    return s, np.sqrt(np.maximum(0.0, 1.0 - s * s))


class TestBallVolume:
    def test_small_dimensions(self):
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)

    def test_closed_form_d5(self):
        assert ball_volume(5) == pytest.approx(8 * math.pi ** 2 / 15, rel=1e-14)

    def test_bad_dimension(self):
        with pytest.raises(InputError):
            ball_volume(0)

    def test_recurrence(self):
        om = ball_volumes(30)
        for k in range(2, 31):
            expect = om[k - 2] * math.sqrt(math.pi) * math.gamma((k + 1) / 2) \
                / math.gamma(k / 2 + 1)
            assert om[k - 1] == pytest.approx(expect, rel=1e-12)


class TestProfileValidation:
    def test_odd_rejected(self):
        with pytest.raises(InputError):
            RevolutionBody(3, 1.0, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.5])

    def test_convex_rejected(self):
        with pytest.raises(InputError):
            RevolutionBody(3, 1.0, [-1.0, 0.0, 1.0], [1.0, 0.1, 1.0])

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            RevolutionBody(3, 1.0, [-1.0, 1.0], [0.0, 0.0])

    def test_low_dimension_rejected(self):
        with pytest.raises(InputError):
            RevolutionBody(2, 1.0, [-1.0, 1.0], [1.0, 1.0])

    def test_tiny_half_profile_rejected(self):
        # a profile on [0, a], not [-a, a]: below unit size a tolerance of a
        # fixed 1e-12 took it, and its axis ratio read 3, under the sharp 6
        with pytest.raises(InputError):
            RevolutionBody(3, 1e-13, [0.0, 5e-14, 1e-13], [0.0, 1e-13, 0.0])

    @pytest.mark.parametrize("kind", ["double-cone", "schwartz"])
    def test_scaled_profiles_load(self, kind):
        # the tolerances scale with the body: a valid profile and a Schwartz
        # symmetral still load at 1e-13 times their size, with the same ratio
        if kind == "double-cone":
            R = fixtures.double_cone_profile()
        else:
            R = schwartz(fixtures.icosphere(1), np.array([0.3, 0.2, 1.0]))
        doc = body_to_dict(R)
        doc["a"] *= 1e-13
        doc["profile"] = (1e-13 * np.array(doc["profile"])).tolist()
        small = body_from_dict(doc)
        assert axis_ratio(small) == pytest.approx(axis_ratio(R), rel=1e-9)


class TestVolume:
    def test_cylinder(self):
        assert rev_volume(fixtures.cylinder_profile()) == pytest.approx(
            2 * math.pi, rel=1e-14)

    def test_double_cone(self):
        assert rev_volume(fixtures.double_cone_profile()) == pytest.approx(
            2 * math.pi / 3, rel=1e-14)

    def test_d4_slab(self):
        R = fixtures.cylinder_profile(d=4)
        assert rev_volume(R) == pytest.approx(2 * ball_volume(3), rel=1e-14)

    def test_power_integral_exactness(self):
        # int (1-|s|)^k over [-1, 1] = 2/(k+1), closed form per piece
        s = np.array([-1.0, 0.0, 1.0])
        f = np.array([0.0, 1.0, 0.0])
        for k in range(1, 15):
            assert profile_power_integral(s, f, k) == pytest.approx(
                2.0 / (k + 1), rel=1e-14)


class TestSecondProjAxis:
    def test_double_cone(self):
        assert rev_second_proj_axis(fixtures.double_cone_profile()) == pytest.approx(
            4 * math.pi, rel=1e-12)

    def test_cylinder(self):
        assert rev_second_proj_axis(fixtures.cylinder_profile()) == pytest.approx(
            16 * math.pi, rel=1e-12)

    def test_sampled_ball(self):
        s, f = ball_profile()
        val = rev_second_proj_axis(RevolutionBody(3, 1.0, s, f))
        assert val == pytest.approx(math.pi ** 3, rel=5e-3)


class TestAxisRatio:
    def test_double_cone_is_six(self):
        assert axis_ratio(fixtures.double_cone_profile()) == pytest.approx(6.0, rel=1e-12)

    def test_cylinder_is_eight(self):
        assert axis_ratio(fixtures.cylinder_profile()) == pytest.approx(8.0, rel=1e-12)

    def test_d4_double_cone(self):
        assert axis_ratio(fixtures.double_cone_profile(d=4)) == pytest.approx(
            8 * math.pi ** 2 / 9, rel=1e-12)

    @pytest.mark.parametrize("d", range(3, 17))
    def test_double_cone_attains_bound(self, d):
        R = fixtures.double_cone_profile(d=d)
        assert axis_ratio(R) == pytest.approx(cone_bound(d), rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 16])
    def test_bound_on_random_profiles(self, d, rng):
        for _ in range(200):
            R = fixtures.random_concave_profile(rng, n_nodes=int(rng.integers(3, 8)))
            R = RevolutionBody(d, R.a, R.s, R.f)
            assert axis_ratio(R) >= cone_bound(d) * (1.0 - 1e-9)

    def test_scaling_invariance(self, rng):
        R = fixtures.random_concave_profile(rng)
        assert axis_ratio(R.scaled(2.5)) == pytest.approx(axis_ratio(R), rel=1e-12)


class TestConeBound:
    def test_d3(self):
        assert cone_bound(3) == pytest.approx(6.0, rel=1e-14)

    def test_d4(self):
        assert cone_bound(4) == pytest.approx(8 * math.pi ** 2 / 9, rel=1e-14)

    def test_bad_dimension(self):
        with pytest.raises(InputError):
            cone_bound(2)

    def test_monitored_constant_tends_to_limit(self):
        # c_d = cone_bound(d) sqrt(d) / (2 P(ball_d)) approaches sqrt(e/2pi)
        last = None
        for d in range(3, 51):
            c_d = cone_bound(d) * math.sqrt(d) / (2.0 * ball_petty_value(d))
            assert cone_bound(d) > 0.0
            gap = abs(c_d / SQ_E_2PI - 1.0)
            if last is not None:
                assert gap < last + 1e-12  # monotone approach
            last = gap
        assert last < 0.05


class TestBerwald:
    def test_tent_equality(self):
        dc = fixtures.double_cone_profile()
        res = berwald_check(dc.s, dc.f, 1.0, 2.0)
        assert res.lhs == pytest.approx(1.0, rel=1e-14)
        assert res.rhs == pytest.approx(1.0, rel=1e-14)
        assert res.equality

    def test_constant_profile(self):
        cyl = fixtures.cylinder_profile()
        res = berwald_check(cyl.s, cyl.f, 1.0, 2.0)
        assert res.lhs == pytest.approx(2.0, rel=1e-14)
        assert res.rhs == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert not res.equality

    def test_ball_profile(self):
        s, f = ball_profile(4001)
        res = berwald_check(s, f, 1.0, 2.0)
        assert res.lhs == pytest.approx(math.pi / 2, rel=1e-5)
        assert res.rhs == pytest.approx(math.sqrt(2.0), rel=1e-5)

    def test_bad_exponents(self):
        dc = fixtures.double_cone_profile()
        with pytest.raises(InputError):
            berwald_check(dc.s, dc.f, 2.0, 1.0)

    def test_non_concave_rejected(self):
        with pytest.raises(InputError):
            berwald_check([-1.0, 0.0, 1.0], [1.0, 0.2, 1.0], 1.0, 2.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inequality_random(self, seed):
        rng = np.random.default_rng(seed)
        R = fixtures.random_concave_profile(rng, n_nodes=int(rng.integers(3, 9)))
        p = float(rng.uniform(0.2, 3.0))
        q = p + float(rng.uniform(0.1, 3.0))
        res = berwald_check(R.s, R.f, p, q)
        assert res.lhs >= res.rhs - 1e-12 * max(1.0, res.lhs)


class TestMeshAgreement:
    def test_closed_form_vs_polytopal_pipeline(self, rng):
        # d=3 revolution bodies realized as 64-gon hulls: the polytope ratio
        # at the axis agrees with the closed form to rounding
        from pettylab import ratio
        for _ in range(5):
            R = fixtures.random_concave_profile(rng, n_nodes=4)
            P = rev_to_polytope(R)
            lhs = ratio(P, np.array([0.0, 0.0, 1.0]))
            assert lhs == pytest.approx(axis_ratio(R), rel=1e-12)

    def test_support_and_volume_agree_with_realization(self, rng):
        # the exact protocol answers bound the inscribed 64-gon realization
        R = fixtures.random_concave_profile(rng, n_nodes=5)
        P = rev_to_polytope(R)
        X = rng.standard_normal((20, 3))
        assert R.volume == rev_volume(R)
        assert np.all(P.support(X) <= R.support(X) * (1.0 + 1e-12))
        assert P.support(X) == pytest.approx(R.support(X), rel=2e-3)
        assert P.volume == pytest.approx(R.volume, rel=5e-3)

    def test_cylinder_support_closed_form(self):
        R = fixtures.cylinder_profile()
        X = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]])
        assert R.support(X) == pytest.approx([1.0, 1.0, 1.4], rel=1e-15)
        with pytest.raises(InputError):
            R.projection_generators()
