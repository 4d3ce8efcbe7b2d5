import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (concentrator_gain, lambertian_order, link_constants,
                     min_power_illum, min_power_rate)
from uavvlc.channel import (InfeasibleError, Requirements, VlcParams,
                            _exponent, capacity_lower_bound, channel_gain,
                            constraint_coefficients, min_power_for_radius)

# Hand-checked reference values for the defaults: A = 1e-4 m^2, n_r = 1.5,
# 60 degree semi-angles, z_u = 8 m, sigma_w = 1e-10, xi = 1.
H_NADIR = 1.4920775914865188e-06         # 6e-4 / (128 pi)
P_RATE_NADIR = 0.00039463619465133977    # rate threshold 2 bits at nadir
V_ILLUM = 16.36246173744684              # illuminance coefficient, eta = 0.1
RATE_RATIO = 9.634672720979975e-08       # rate coefficient, C = 2 bits
M_30_DEG = 4.818841679306418


def table_params(**overrides):
    kw = dict(detector_area=1e-4, refractive_index=1.5, tx_semi_angle_deg=60.0,
              fov_semi_angle_deg=60.0, noise_std=1e-10, illum_factor=1.0,
              uav_height=8.0)
    kw.update(overrides)
    return VlcParams(**kw)


class TestLambertianOrder:
    def test_sixty_degrees_is_exactly_one(self):
        assert table_params().lambertian_m == 1.0

    def test_forty_five_degrees_is_exactly_two(self):
        assert table_params(tx_semi_angle_deg=45.0).lambertian_m == 2.0

    def test_thirty_degrees(self):
        assert table_params(tx_semi_angle_deg=30.0).lambertian_m == \
            pytest.approx(M_30_DEG, rel=1e-15)

    def test_radian_path_close_to_exact(self):
        assert lambertian_order(math.radians(60.0)) == pytest.approx(1.0,
                                                                     rel=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lambertian_order(0.0)
        with pytest.raises(ValueError):
            lambertian_order(math.pi / 2.0)


class TestVlcParams:
    def test_concentrator_gain_value(self):
        # 1.5^2 / sin^2(60 deg) = 2.25 / 0.75
        assert table_params().fov_gain == 3.0

    def test_fov_tangent(self):
        assert table_params().fov_tan == pytest.approx(math.sqrt(3.0),
                                                       rel=1e-15)
        assert table_params(fov_semi_angle_deg=90.0).fov_tan == math.inf

    def test_fov_ground_radius(self):
        p = table_params()
        assert p.fov_ground_radius == pytest.approx(8.0 * math.sqrt(3.0),
                                                    rel=1e-15)

    def test_replace_recomputes_derived_constants(self):
        p = replace(table_params(), tx_semi_angle_deg=30.0,
                    fov_semi_angle_deg=80.0)
        assert p == table_params(tx_semi_angle_deg=30.0,
                                 fov_semi_angle_deg=80.0)
        assert p.lambertian_m == pytest.approx(M_30_DEG, rel=1e-15)
        assert p.fov_ground_radius == pytest.approx(
            8.0 * math.tan(math.radians(80.0)), rel=1e-14)

    def test_derived_constants_cannot_be_set(self):
        with pytest.raises(TypeError):
            table_params(lambertian_m=7.0)
        # positional angles used to be radians; keyword-only construction
        # keeps an old call from silently building a beam about 1 deg wide
        with pytest.raises(TypeError):
            VlcParams(1e-4, 1.5, math.radians(60.0), math.radians(60.0))

    def test_from_degrees_is_the_constructor(self):
        assert VlcParams.from_degrees(
            detector_area=1e-4, refractive_index=1.5, tx_semi_angle_deg=60.0,
            fov_semi_angle_deg=60.0) == table_params()

    @pytest.mark.parametrize("field,value", [
        ("detector_area", 0.0),
        ("refractive_index", -1.0),
        ("noise_std", 0.0),
        ("illum_factor", 0.0),
        ("uav_height", -8.0),
        ("uav_height", 0.0),
        ("tx_semi_angle_deg", 90.0),
        ("tx_semi_angle_deg", 0.0),
        ("fov_semi_angle_deg", 91.0),
        ("detector_area", math.nan),
        ("refractive_index", math.inf),
        ("noise_std", math.nan),
        ("illum_factor", math.inf),
        ("illum_factor", math.nan),
        ("uav_height", math.nan),
        ("uav_height", math.inf),
        ("tx_semi_angle_deg", math.nan),
        ("fov_semi_angle_deg", math.nan),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            table_params(**{field: value})


class TestLinkConstants:
    """The 50-digit decimal series against 40-digit mpmath, to the bit."""

    @staticmethod
    def angles():
        rng = random.Random(2019)
        return ([k * 0.05 for k in range(1, 1800)]
                + [rng.uniform(0.0, 90.0) for _ in range(500)]
                + [10.0 ** -k for k in range(1, 9)])

    def test_matches_mpmath_bit_for_bit(self):
        for angle in self.angles() + [90.0]:
            tx = angle if angle < 90.0 else 60.0
            p = table_params(tx_semi_angle_deg=tx, fov_semi_angle_deg=angle,
                             refractive_index=1.7)
            assert (p.lambertian_m, p.fov_gain, p.fov_tan) == \
                link_constants(tx, angle, 1.7), angle

    def test_tiny_fov_keeps_every_digit(self):
        # 1 - cos^2 would cancel to 0 here; the series for 1 - cos does not
        for angle in (1e-12, 1e-30, 1e-100):
            p = table_params(fov_semi_angle_deg=angle, refractive_index=1e-20)
            assert (p.fov_gain, p.fov_tan) == \
                link_constants(60.0, angle, 1e-20)[1:]

    def test_small_tx_angle_has_a_finite_order(self):
        # 40-digit mpmath rounded cos to 1 below about 1e-18 degrees and
        # divided by zero; m ~ 2 ln 2 / x^2 is a double down to ~1e-152
        for angle in (1e-12, 1e-20, 1e-100, 1e-152):
            m = table_params(tx_semi_angle_deg=angle).lambertian_m
            assert m == pytest.approx(2.0 * math.log(2.0)
                                      / math.radians(angle) ** 2, rel=1e-14)

    @pytest.mark.parametrize("field,value", [
        ("tx_semi_angle_deg", 1e-153),     # m overflows
        ("tx_semi_angle_deg", 5e-324),
        ("fov_semi_angle_deg", 1e-200),    # sin^2 underflows to 0
        ("fov_semi_angle_deg", 1e-155),    # n_r^2 / sin^2 overflows
        ("refractive_index", 1e200),       # n_r^2 overflows
        ("refractive_index", 1e-320),      # n_r^2 underflows to 0
    ])
    def test_out_of_range_constant_names_its_field(self, field, value):
        pattern = f"^{field} {re.escape(repr(value))} "
        with pytest.raises(ValueError, match=pattern):
            table_params(**{field: value})


class TestRequirements:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Requirements(-1.0, 0.1)

    @pytest.mark.parametrize("rate,illum", [
        (math.nan, 0.1), (2.0, math.nan), (math.inf, 0.1), (2.0, math.inf),
    ])
    def test_rejects_non_finite(self, rate, illum):
        # a NaN rate threshold used to drop out of max() and leave a
        # "feasible" solution priced by illumination alone
        with pytest.raises(ValueError, match="finite"):
            Requirements(rate, illum)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            Requirements(0.0, 0.0)

    def test_single_sided_allowed(self):
        assert Requirements(0.0, 0.5).illum_threshold == 0.5
        assert Requirements(1.5, 0.0).rate_threshold == 1.5


class TestConcentratorGain:
    def test_inside_and_outside_fov(self):
        p = table_params()
        assert concentrator_gain(0.0, p) == 3.0
        psi_c = math.radians(p.fov_semi_angle_deg)
        assert concentrator_gain(psi_c, p) == 3.0
        assert concentrator_gain(psi_c + 1e-9, p) == 0.0

    def test_negative_angle_rejected(self):
        with pytest.raises(ValueError):
            concentrator_gain(-0.1, table_params())


class TestChannelGain:
    def test_nadir_reference_value(self):
        h = channel_gain((0.0, 0.0), (0.0, 0.0), table_params())
        assert h == pytest.approx(H_NADIR, rel=1e-12)

    def test_decreases_with_horizontal_distance(self):
        p = table_params()
        gains = [channel_gain((0.0, 0.0), (r, 0.0), p)
                 for r in (0.0, 1.0, 3.0, 7.0, 12.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_zero_outside_fov(self):
        p = table_params()
        edge = p.fov_ground_radius
        assert channel_gain((0.0, 0.0), (edge, 0.0), p) > 0.0
        assert channel_gain((0.0, 0.0), (edge * 1.0000001, 0.0), p) == 0.0

    def test_height_override_third_coordinate(self):
        p = replace(table_params(), uav_height=12.0)
        h12 = channel_gain((0.0, 0.0), (0.0, 0.0), p)
        # (m+1) A g / (2 pi z^2) at nadir
        assert h12 == pytest.approx(6e-4 / (2.0 * math.pi * 144.0), rel=1e-12)

    def test_matches_explicit_formula_on_random_geometry(self):
        p = table_params()
        rng = random.Random(4)
        for _ in range(200):
            r = rng.uniform(0.0, p.fov_ground_radius * 0.999)
            d2 = r * r + 64.0
            expected = (2.0 * 1e-4 / (2.0 * math.pi * d2)) * 3.0 * (64.0 / d2)
            got = channel_gain((0.0, 0.0), (r, 0.0), p)
            assert got == pytest.approx(expected, rel=1e-12)


class TestCapacityAndMinPower:
    def test_capacity_zero_power(self):
        assert capacity_lower_bound(0.0, H_NADIR, table_params()) == 0.0

    def test_capacity_increases_with_power(self):
        p = table_params()
        caps = [capacity_lower_bound(w, H_NADIR, p)
                for w in (0.0, 1e-4, 1e-3, 1e-2)]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_min_power_rate_nadir_reference(self):
        p = table_params()
        reqs = Requirements(2.0, 0.1)
        h = channel_gain((0.0, 0.0), (0.0, 0.0), p)
        assert min_power_rate(h, reqs, p) == pytest.approx(P_RATE_NADIR,
                                                           rel=1e-12)

    def test_min_power_rate_round_trip(self):
        p = table_params()
        rng = random.Random(11)
        for _ in range(300):
            h = rng.uniform(1e-8, 1e-2)
            cth = rng.uniform(0.05, 6.0)
            power = min_power_rate(h, Requirements(cth, 0.0001), p)
            assert capacity_lower_bound(power, h, p) == pytest.approx(
                cth, rel=1e-12)

    def test_min_power_illum_round_trip(self):
        p = table_params()
        rng = random.Random(12)
        for _ in range(300):
            h = rng.uniform(1e-8, 1e-2)
            eta = rng.uniform(1e-3, 10.0)
            power = min_power_illum(h, Requirements(0.0, eta), p)
            assert p.illum_factor * power * h == pytest.approx(eta, rel=1e-12)

    def test_zero_rate_threshold_costs_nothing(self):
        p = table_params()
        assert min_power_rate(H_NADIR, Requirements(0.0, 0.1), p) == 0.0

    def test_zero_gain_is_infeasible(self):
        p = table_params()
        reqs = Requirements(2.0, 0.1)
        with pytest.raises(InfeasibleError):
            min_power_rate(0.0, reqs, p)
        with pytest.raises(InfeasibleError):
            min_power_illum(0.0, reqs, p)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(1e-9, 1e-1), st.floats(0.01, 8.0))
    def test_round_trip_property(self, h, cth):
        p = table_params()
        power = min_power_rate(h, Requirements(cth, 0.001), p)
        assert capacity_lower_bound(power, h, p) == pytest.approx(cth,
                                                                  rel=1e-11)


    # each used to return NaN (inf * 0 for the infinite ones), but an
    # infinite power at a finite gain, which gave inf
    @pytest.mark.parametrize("power,gain", [(math.nan, H_NADIR), (1e-3, math.nan),
                                            (-1e-3, H_NADIR), (1e-3, -H_NADIR),
                                            (math.inf, 0.0), (0.0, math.inf),
                                            (math.inf, H_NADIR)])
    def test_capacity_rejects_a_bad_power_or_gain(self, power, gain):
        with pytest.raises(ValueError,
                           match="^power and gain must be finite and >= 0$"):
            capacity_lower_bound(power, gain, table_params())

    @pytest.mark.parametrize("r", [math.nan, -1.0])
    def test_min_power_rejects_a_bad_distance(self, r):
        p = table_params()
        coeffs = constraint_coefficients(p, Requirements(2.0, 0.1))
        with pytest.raises(ValueError,
                           match="^horizontal distance must be >= 0$"):
            min_power_for_radius(r, coeffs, p)

class TestConstraintCoefficients:
    def test_reference_values(self):
        c = constraint_coefficients(table_params(), Requirements(2.0, 0.1))
        assert c.v_illum == pytest.approx(V_ILLUM, rel=1e-12)
        assert c.rate_ratio == pytest.approx(RATE_RATIO, rel=1e-12)
        assert _exponent(table_params()) == 4.0
        assert c.prefactor == c.v_illum    # illuminance dominates here

    def test_rate_dominates_at_high_noise(self):
        c = constraint_coefficients(table_params(noise_std=0.05),
                                    Requirements(1.2, 0.1))
        assert c.prefactor == c.rate_ratio

    def test_nadir_power(self):
        p = table_params()
        c = constraint_coefficients(p, Requirements(2.0, 0.1))
        assert min_power_for_radius(0.0, c, p) == pytest.approx(
            c.prefactor * 8.0 ** 4, rel=1e-12)

    def test_link_constant_overflow_raises(self):
        # xi (m+1) overflows before A shrinks it: the prefactor read 0, and
        # every user was priced at 0 W
        with pytest.raises(OverflowError, match="^xi .* floating-point range$"):
            constraint_coefficients(table_params(illum_factor=1.7e308),
                                    Requirements(2.0, 0.1))

    def test_agrees_with_per_link_minimum(self):
        # max(rate power, illuminance power) at distance r must equal the
        # closed-form d^(m+3) rule
        p = table_params()
        reqs = Requirements(2.0, 0.1)
        c = constraint_coefficients(p, reqs)
        rng = random.Random(21)
        for _ in range(200):
            r = rng.uniform(0.0, p.fov_ground_radius * 0.999)
            h = channel_gain((0.0, 0.0), (r, 0.0), p)
            direct = max(min_power_rate(h, reqs, p),
                         min_power_illum(h, reqs, p))
            assert min_power_for_radius(r, c, p) == pytest.approx(direct,
                                                                  rel=1e-12)

    def test_outside_fov_infeasible(self):
        # no power serves a user beyond the FOV ground radius
        p = table_params()
        c = constraint_coefficients(p, Requirements(2.0, 0.1))
        assert min_power_for_radius(p.fov_ground_radius * 1.001, c, p) \
            == math.inf

    def test_negative_radius_rejected(self):
        p = table_params()
        c = constraint_coefficients(p, Requirements(2.0, 0.1))
        with pytest.raises(ValueError):
            min_power_for_radius(-1.0, c, p)
