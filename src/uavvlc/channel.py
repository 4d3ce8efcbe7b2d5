"""LED downlink physics and closed-form minimum-power rules.

Line-of-sight Lambertian channel between a downward-facing LED at height
z_u and an upward-facing photodiode on the ground, horizontal distance r,
link distance d = sqrt(r^2 + z_u^2):

    h = (m + 1) * A / (2 pi d^2) * g * cos^m(phi) * cos(psi)

where the irradiance and incidence angles coincide (cos phi = cos psi =
z_u / d), m is the Lambertian order of the LED and g is the optical
concentrator gain, constant inside the field of view and zero outside.

The achievable rate is lower-bounded by

    C = 1/2 * log2(1 + (e / 2 pi) * (xi * P * h / sigma_w)^2)

bits per transmission, with xi the electro-optic conversion factor, P the
transmit power and sigma_w the noise standard deviation.  Inverting C and
the illuminance target eta = xi * P * h gives the per-link minimum powers.
Both scale as d^(m+3) once the geometry is folded in, which is what makes
the farthest user of each cell the binding one; ``constraint_coefficients``
and ``min_power_for_radius`` evaluate that power law directly, the latter
giving inf for a user outside the field of view.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
# 50 digits, no traps: a degenerate result reaches the range checks below
_DIGITS = decimal.Context(prec=50, traps=[])
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _versine(degrees: float) -> Decimal:
    """1 - cos of an angle in degrees, by its Taylor series in _DIGITS."""
    # the series starts at x^2 / 2, so a tiny angle keeps all its digits
    x2 = (Decimal(degrees) * _PI / 180) ** 2
    total, term, k = Decimal(0), x2 / 2, 2
    while total + term != total:
        total += term
        term = -term * x2 / ((k + 1) * (k + 2))
        k += 2
    return total


class InfeasibleError(Exception):
    """A coverage or link-budget requirement cannot be met.

    Carries the offending UAV and user indices when the caller knows them.
    """

    def __init__(self, message: str, uav_index: Optional[int] = None,
                 user_index: Optional[int] = None):
        super().__init__(message)
        self.uav_index = uav_index
        self.user_index = user_index


@dataclass(frozen=True, kw_only=True)
class VlcParams:
    """Physical-layer parameters of one LED/photodiode link.

    Angles are degrees.  The derived constants (Lambertian order, in-FOV
    concentrator gain, FOV tangent) come from one decimal series for
    1 - cos and are rounded once to double, so special angles give exact
    values (m = 1 and g = 3 at 60 degrees).  They cannot be passed in,
    ``dataclasses.replace`` recomputes them, and a field that puts one
    beyond the double range (fov_tan is inf at 90 degrees) is rejected.
    """

    detector_area: float            # photodiode physical area, m^2
    refractive_index: float         # concentrator refractive index n_r
    tx_semi_angle_deg: float        # LED half-power semi-angle, degrees
    fov_semi_angle_deg: float       # receiver field-of-view semi-angle, degrees
    noise_std: float = 1e-10        # AWGN standard deviation sigma_w, A
    illum_factor: float = 1.0       # electro-optic conversion factor xi
    uav_height: float = 8.0         # LED height above ground z_u, m
    lambertian_m: float = field(init=False)     # -ln 2 / ln cos(Phi_1/2)
    fov_gain: float = field(init=False)         # n_r^2 / sin^2(Psi_c)
    fov_tan: float = field(init=False)          # tan(Psi_c), inf at 90 deg

    def __post_init__(self):
        # every comparison is written so that NaN fails it
        for name in ("detector_area", "refractive_index", "noise_std",
                     "illum_factor", "uav_height"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 < self.tx_semi_angle_deg < 90.0:
            raise ValueError("tx_semi_angle_deg must be in (0, 90)")
        if not 0.0 < self.fov_semi_angle_deg <= 90.0:
            raise ValueError("fov_semi_angle_deg must be in (0, 90]")
        with decimal.localcontext(_DIGITS):
            vers_psi = _versine(self.fov_semi_angle_deg)
            sin2_psi = vers_psi * (2 - vers_psi)
            vers_phi = _versine(self.tx_semi_angle_deg)
            # enough digits that 1 - vers_phi keeps every digit of vers_phi
            exact = decimal.Context(prec=50 - vers_phi.adjusted())
            m = float(-Decimal(2).ln() / exact.subtract(1, vers_phi).ln(exact))
            tan_psi = (math.inf if self.fov_semi_angle_deg >= 90.0
                       else float(sin2_psi.sqrt() / (1 - vers_psi)))
        try:
            n2 = self.refractive_index ** 2
        except OverflowError:
            n2 = math.inf
        sin2_psi = float(sin2_psi)
        gain = n2 / sin2_psi if sin2_psi > 0.0 else math.inf
        for name, value in (("tx_semi_angle_deg", m), ("refractive_index", n2),
                            ("fov_semi_angle_deg", gain)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} {getattr(self, name)!r} puts a derived "
                                 f"link constant beyond floating-point range")
        object.__setattr__(self, "lambertian_m", m)
        object.__setattr__(self, "fov_gain", gain)
        object.__setattr__(self, "fov_tan", tan_psi)

    @classmethod
    def from_degrees(cls, **kwargs) -> "VlcParams":
        """Same as ``VlcParams(**kwargs)``; bench/run.py calls it by name."""
        return cls(**kwargs)

    @property
    def fov_ground_radius(self) -> float:
        """Largest horizontal distance still inside the FOV: z_u * tan(Psi_c)."""
        return self.uav_height * self.fov_tan


@dataclass(frozen=True)
class Requirements:
    """Per-user service thresholds.

    rate_threshold is in bits per transmission; illum_threshold is the
    floor on the received illuminance proxy xi * P * h.  Both are finite
    and non-negative, and at least one must be positive.
    """

    rate_threshold: float
    illum_threshold: float

    def __post_init__(self):
        for name in ("rate_threshold", "illum_threshold"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.rate_threshold == 0.0 and self.illum_threshold == 0.0:
            raise ValueError("rate_threshold must be > 0 when illum_threshold is 0")


def channel_gain(uav_pos, user_pos, params: VlcParams) -> float:
    """DC channel gain between a UAV and a ground user.

    uav_pos is (x, y), at params.uav_height above the ground.  Returns 0.0
    when the user falls outside the field of view.
    """
    z = params.uav_height
    dx = float(uav_pos[0]) - float(user_pos[0])
    dy = float(uav_pos[1]) - float(user_pos[1])
    # the FOV test that pricing and the greedy association make
    if math.sqrt(dx * dx + dy * dy) > params.fov_ground_radius:
        return 0.0
    r = math.hypot(dx, dy)
    d2 = r * r + z * z
    d = math.sqrt(d2)
    m = params.lambertian_m
    # cos(phi) = cos(psi) = z / d, so the angular factors give (z/d)^(m+1)
    return ((m + 1.0) * params.detector_area / (_TWO_PI * d2)
            * params.fov_gain * (z / d) ** (m + 1.0))


def capacity_lower_bound(power: float, gain: float, params: VlcParams) -> float:
    """Rate lower bound 1/2 log2(1 + (e/2pi) (xi P h / sigma_w)^2), bits."""
    if not (0.0 <= power < math.inf and 0.0 <= gain < math.inf):    # NaN fails
        raise ValueError("power and gain must be finite and >= 0")
    snr_amp = params.illum_factor * power * gain / params.noise_std
    return 0.5 * math.log1p(math.e / _TWO_PI * snr_amp * snr_amp) / _LN2


@dataclass(frozen=True)
class ConstraintCoefficients:
    """Geometry-independent pieces of the per-link minimum power.

    With d the 3D link distance, meeting both constraints costs
    max(v_illum, rate_ratio) * d^(m+3):

        v_illum    = 2 pi eta_th / ((m+1) A g z_u^(m+1) xi)
        rate_ratio = M / N, the same quantity for the rate constraint,
                     with M = (2 pi)^(3/2) sigma_w sqrt((2^(2 C_th)-1)/e)
                     and N = xi (m+1) A g z_u^(m+1).

    Whichever coefficient is larger identifies the binding constraint.  Their
    max, the prefactor, prices every link, so construction raises
    OverflowError unless both are finite and >= 0 and the prefactor is > 0.
    """

    v_illum: float
    rate_ratio: float

    def __post_init__(self):
        if not (0.0 <= self.v_illum < math.inf and 0.0 <= self.rate_ratio < math.inf
                and self.prefactor > 0.0):    # NaN fails each comparison
            raise OverflowError(f"power prefactor max({self.v_illum!r}, "
                                f"{self.rate_ratio!r}) is not a positive finite double")

    @property
    def prefactor(self) -> float:
        return max(self.v_illum, self.rate_ratio)


def constraint_coefficients(params: VlcParams,
                            reqs: Requirements) -> ConstraintCoefficients:
    """Fold parameters and thresholds into d^(m+3) power-law coefficients.

    Raises OverflowError unless the prefactor is a positive finite double (an
    infinite link constant N makes it 0), ZeroDivisionError when N is 0."""
    m = params.lambertian_m
    n_const = (params.illum_factor * (m + 1.0) * params.detector_area
               * params.fov_gain * params.uav_height ** (m + 1.0))
    v_illum = _TWO_PI * reqs.illum_threshold / n_const
    m_const = (_TWO_PI ** 1.5 * params.noise_std
               * math.sqrt(math.expm1(2.0 * reqs.rate_threshold * _LN2) / math.e))
    return ConstraintCoefficients(v_illum=v_illum, rate_ratio=m_const / n_const)


def _exponent(params: VlcParams) -> float:
    # the m + 3 of the d^(m+3) power law
    return params.lambertian_m + 3.0


def _unit_power(r: float, params: VlcParams) -> float:
    # (r^2 + z_u^2)^((m + 3) / 2), the power at a unit prefactor; inf past
    # the FOV ground radius.  Thresholds reach the power only through the
    # prefactor, so one geometry's unit powers serve every threshold.
    if not r >= 0.0:    # NaN fails it
        raise ValueError("horizontal distance must be >= 0")
    if r > params.fov_ground_radius:
        return math.inf
    z = params.uav_height
    return (r * r + z * z) ** (0.5 * _exponent(params))


def min_power_for_radius(r: float, coeffs: ConstraintCoefficients,
                         params: VlcParams) -> float:
    """Minimum power to serve a user at horizontal distance r.

    Returns inf when r falls outside the FOV ground radius, where no power
    serves the user: a prefactor is positive and finite, so it times inf is inf.
    """
    return coeffs.prefactor * _unit_power(r, params)
