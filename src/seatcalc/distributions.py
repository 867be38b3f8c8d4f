"""Population distributions and distribution-matched (unbiased) marks.

A rounding mark is unbiased for a population distribution when the
expected seats a family receives equal the family's expected quota
under repeated i.i.d. state draws.  With I the population CDF and D the
divisor, the condition for family f is

    I(r·D) = (1/D) * integral of I(v) dv over [f·D, (f+1)·D]

whose right side lies between I(fD) and I((f+1)D).  So v/D rounds up
past f exactly when I(v) reaches the mean of I over that interval.  Each
distribution implements that one mean test as a pair: ``_mean_test(f, D)``
decides whether the interval carries any mass and returns a reference
point and the interval mean, or None, and ``_test_at(v, ref, mean)``
compares I(v) with that mean.  The base class states both relative to
I(fD); a lognormal tests in CDF form below its median, in survival form
above, in one straight-line computation per decision on constants
computed once per law.  The rounding margin, the reported mark and the
expected family bias all read the pair.  Power-law
densities p(v) ~ v^(beta-1) give the divisor-independent closed-form
marks of the signposts module on intervals inside their support; every
other distribution (lognormal in particular) yields marks that move
with D, so the induced method is not a homogeneous divisor method.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .core import StateProfile
from .signposts import power_law_mark

if TYPE_CHECKING:  # imported where used, to keep numpy off the import path
    import numpy as np

__all__ = [
    "PopulationDistribution",
    "PowerLaw",
    "LogNormal",
    "Uniform",
    "DistributionMarks",
    "ImmunityReport",
    "FamilyBias",
    "unbiased_mark",
    "expected_family_bias",
    "verify_alabama_immunity",
    "sample_states",
    "monte_carlo_bias",
]

_SQRT2 = math.sqrt(2.0)
_U = 2.0 ** -53  # unit roundoff
_ERFC_ULPS = 8.0  # libm's erfc error taken for a margin error bound, in ulps


def _phi(z: float) -> float:
    # standard normal CDF via the complementary error function
    return 0.5 * math.erfc(-z / _SQRT2)


def _phi_diff(z_a: float, z_b: float) -> float:
    # Phi(z_b) - Phi(z_a), stable in both tails
    if z_a + z_b > 0:
        return 0.5 * (math.erfc(z_a / _SQRT2) - math.erfc(z_b / _SQRT2))
    return 0.5 * (math.erfc(-z_b / _SQRT2) - math.erfc(-z_a / _SQRT2))


class PopulationDistribution:
    """Base interface: CDF, density, and two stable derived quantities.

    ``cdf_diff(a, b)`` is I(b) − I(a) computed without cancellation and
    ``cdf_integral(a, b)`` is the exact integral of I over [a, b]; the
    mark machinery is built on these so it keeps full precision even
    deep in a distribution's tails.
    """

    kind = "abstract"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, v: float) -> float:
        raise NotImplementedError

    def pdf(self, v: float) -> float:
        raise NotImplementedError

    def cdf_diff(self, a: float, b: float) -> float:
        raise NotImplementedError

    def _cdf_antideriv(self, v: float) -> float:
        # an antiderivative of I inside the support, up to a constant
        raise NotImplementedError

    def cdf_integral(self, a: float, b: float) -> float:
        # a bounded support: I = 0 below it, 1 above it, _cdf_antideriv inside
        if b <= a:
            return 0.0
        v_lo, v_hi = self.support
        total = 0.0
        if b > v_hi:
            total += b - max(a, v_hi)
        lo = min(max(a, v_lo), v_hi)
        hi = min(max(b, v_lo), v_hi)
        if hi > lo:
            total += self._cdf_antideriv(hi) - self._cdf_antideriv(lo)
        return total

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def _mean_test(self, f: int, divisor: float) -> tuple[float, float] | None:
        """``(ref, mean)`` for ``_test_at``, or None when [fD, (f+1)D] carries
        no mass: here ref = fD and mean = (1/D)∫_{fD}^{(f+1)D} I − I(fD)."""
        a, b = f * divisor, (f + 1) * divisor
        if self.cdf_diff(a, b) <= 0.0:
            return None
        return a, self.cdf_integral(a, b) / divisor - self.cdf(a)

    def _test_at(self, v: float, ref: float, mean: float) -> float:
        """I(v) − (1/D)∫_{fD}^{(f+1)D} I, both sides taken relative to I(ref):
        >= 0 iff v/D rounds up past f."""
        return self.cdf_diff(ref, v) - mean

    def _margin_error(self, value: float, d_min: float) -> float:
        """A bound on the error of the computed mean test of population
        ``value`` at every D >= ``d_min`` (see ``DistributionMarks.margin_error``);
        none is declared here."""
        return math.inf


@dataclass(frozen=True)
class PowerLaw(PopulationDistribution):
    """Density p(v) proportional to v^(beta-1) on [v_lo, v_hi].

    beta = 0 is the log-uniform law (p ~ 1/v).  v_lo = 0 is allowed for
    beta > 0 and v_hi = inf for beta < 0; otherwise both edges must be
    finite for the density to normalize.
    """

    beta: float
    v_lo: float
    v_hi: float

    kind = "powerlaw"

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not (0 <= self.v_lo < self.v_hi):
            raise ValueError(f"need 0 <= v_lo < v_hi, got [{self.v_lo}, {self.v_hi}]")
        if self.v_lo == 0 and self.beta <= 0:
            raise ValueError("v_lo = 0 requires beta > 0")
        if math.isinf(self.v_hi) and self.beta >= 0:
            raise ValueError("v_hi = inf requires beta < 0")
        try:
            norm = self._norm if self.beta else math.log(self.v_hi / self.v_lo)
        except OverflowError:
            norm = math.inf
        if norm == 0 or not math.isfinite(norm):
            raise ValueError(f"the density does not normalize in floats on "
                             f"[{self.v_lo}, {self.v_hi}]: its normalizer is {norm!r}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.v_lo, self.v_hi)

    def _pow(self, v: float, e: float) -> float:
        if v == 0:
            return 0.0  # only reached with e > 0
        if math.isinf(v):
            return 0.0  # only reached with e < 0
        return v ** e

    @property
    def _norm(self) -> float:
        # v_hi^beta - v_lo^beta; same sign as beta
        return self._pow(self.v_hi, self.beta) - self._pow(self.v_lo, self.beta)

    def cdf(self, v: float) -> float:
        if v <= self.v_lo:
            return 0.0
        if v >= self.v_hi:
            return 1.0
        if self.beta == 0:
            return math.log(v / self.v_lo) / math.log(self.v_hi / self.v_lo)
        return (self._pow(v, self.beta) - self._pow(self.v_lo, self.beta)) / self._norm

    def pdf(self, v: float) -> float:
        if not (self.v_lo <= v <= self.v_hi) or v <= 0:
            return 0.0
        if self.beta == 0:
            return 1.0 / (v * math.log(self.v_hi / self.v_lo))
        return self.beta * v ** (self.beta - 1.0) / self._norm

    def cdf_diff(self, a: float, b: float) -> float:
        a = min(max(a, self.v_lo), self.v_hi)
        b = min(max(b, self.v_lo), self.v_hi)
        if b <= a:
            return 0.0
        if self.beta == 0:
            return math.log(b / a) / math.log(self.v_hi / self.v_lo)
        if a == 0:
            return self._pow(b, self.beta) / self._norm
        # a^beta * ((b/a)^beta - 1), full relative precision in the tail; where
        # (b/a)^beta = exp(e) is beyond the float range (e > 709), a^beta is
        # nothing beside b^beta
        ratio = b / a
        e = self.beta * (math.log(ratio) if ratio < math.inf else math.log(b) - math.log(a))
        if e > 709.0:
            return self._pow(b, self.beta) / self._norm
        return self._pow(a, self.beta) * math.expm1(e) / self._norm

    def _cdf_antideriv(self, v: float) -> float:
        if self.beta == 0:
            log_v, spread = math.log(v / self.v_lo), math.log(self.v_hi / self.v_lo)
            if math.isfinite(plain := v * log_v):
                return (plain - v) / spread
            return v * ((log_v - 1.0) / spread)  # v·ln(v/v_lo) is beyond the float range
        b1 = self.beta + 1.0
        lo_b = self._pow(self.v_lo, self.beta)
        if self.beta == -1.0:
            return (math.log(v) - lo_b * v) / self._norm
        try:
            return (self._pow(v, b1) / b1 - lo_b * v) / self._norm
        except OverflowError:  # v^(beta+1) is beyond the float range, v·(v^beta/b1 − lo_b) not
            return v * ((self._pow(v, self.beta) / b1 - lo_b) / self._norm)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        import numpy as np
        u = rng.random(n)
        if self.beta == 0:
            return self.v_lo * np.exp(u * math.log(self.v_hi / self.v_lo))
        lo_b = self._pow(self.v_lo, self.beta)
        return (lo_b + u * self._norm) ** (1.0 / self.beta)


@dataclass(frozen=True)
class LogNormal(PopulationDistribution):
    """ln v ~ Normal(log_vg, sigma^2); log_vg is the log of the geometric mean.

    The mean test is one straight-line computation per rounding decision:
    ``_mean_test`` picks the CDF or survival form and takes the interval
    mean from ``_tail_integral``, which also serves ``cdf_integral``, and
    ``_test_at`` compares; the margin, the marks and the bias all share
    that arithmetic.  The median and the antiderivative's
    constant are computed once per instance, at construction, so a law
    whose mean overflows a float is rejected there.
    """

    log_vg: float
    sigma: float

    kind = "lognormal"

    def __post_init__(self) -> None:
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.log_vg):
            raise ValueError("log_vg must be finite")
        # the median and the mean v_g*exp(sigma^2/2), the antiderivative's
        # constant: plain attributes, not fields, so == and hash are unchanged,
        # and not cached_property, whose instance-dict writes slow every read
        try:
            shift = math.exp(self.log_vg + 0.5 * self.sigma ** 2)
        except OverflowError:
            raise ValueError("the mean exp(log_vg + sigma^2/2) overflows a float") from None
        object.__setattr__(self, "_median", math.exp(self.log_vg))
        object.__setattr__(self, "_shift", shift)

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def _z(self, v: float) -> float:
        return (math.log(v) - self.log_vg) / self.sigma

    def cdf(self, v: float) -> float:
        if v <= 0:
            return 0.0
        return _phi(self._z(v))

    def pdf(self, v: float) -> float:
        if v <= 0:
            return 0.0
        z = self._z(v)
        return math.exp(-0.5 * z * z) / (v * self.sigma * math.sqrt(2 * math.pi))

    def cdf_diff(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        if b <= 0:
            return 0.0
        if a <= 0:
            return _phi(self._z(b))
        return _phi_diff(self._z(a), self._z(b))

    def cdf_integral(self, a: float, b: float) -> float:
        return self._tail_integral(a, b, 1.0)[0]

    def _tail_integral(self, a: float, b: float, s: float) -> tuple[float, float]:
        # integral of I (s = 1) or of S = 1 - I (s = -1) over [a, b], and the mass
        # on [a, b]; the antiderivative of Phi(s*z(v)) is
        # v*Phi(s*z) - shift*Phi(s*(z - sigma)), which is -shift (s = -1) or
        # 0 (s = 1) at v = 0, written out at both ends with Phi(x) = erfc(-x/√2)/2
        if b <= a:
            return 0.0, 0.0
        shift, log_vg, sigma = self._shift, self.log_vg, self.sigma
        if b <= 0:
            int_b, p_b = (-shift, 1.0) if s < 0 else (0.0, 0.0)
        else:
            z = (math.log(b) - log_vg) / sigma
            p_b = 0.5 * math.erfc(-(s * z) / _SQRT2)
            int_b = b * p_b - shift * (0.5 * math.erfc(-(s * (z - sigma)) / _SQRT2))
        if a <= 0:
            int_a, p_a = (-shift, 1.0) if s < 0 else (0.0, 0.0)
        else:
            z = (math.log(a) - log_vg) / sigma
            p_a = 0.5 * math.erfc(-(s * z) / _SQRT2)
            int_a = a * p_a - shift * (0.5 * math.erfc(-(s * (z - sigma)) / _SQRT2))
        return int_b - int_a, s * (p_b - p_a)

    def _mean_test(self, f: int, divisor: float) -> tuple[float, float] | None:
        # (s, mean) for _test_at, or None when the interval carries no mass;
        # tail-safe: in CDF form (s = 1) if the interval's middle is below the
        # median, else in survival form, and the integral's Phi values give the mass
        s = 1.0 if (f + 0.5) * divisor <= self._median else -1.0
        integral, mass = self._tail_integral(f * divisor, (f + 1) * divisor, s)
        if mass <= 0.0:
            return None
        return s, integral / divisor

    def _test_at(self, v: float, s: float, mean: float) -> float:
        # s * (Phi(s*z(v)) - mean), >= 0 iff v/D rounds up past f
        return s * (0.5 * math.erfc(-(s * ((math.log(v) - self.log_vg) / self.sigma)) / _SQRT2)
                    - mean)

    def _margin_error(self, value: float, d_min: float) -> float:
        """ε >= |margin(fl(v/D), f, D) − M| for v = ``value``, every D >= ``d_min``
        and f = floor(fl(v/D)), with M = I(v) − ∫₀¹ I((f+t)D) dt the exact mean
        test; inf outside the domain below.

        With u = 2⁻⁵³ and first-order error terms (the result is doubled for
        the rest), over every family f <= F = floor(v/d_min):

        - *z.*  A point x reaches ``log`` as fl(v/D)·D, f·D or (f+1)·D,
          within 2u of exact; ``log`` (within an ulp, 2u·|log x|), the
          subtraction of μ = log_vg and the division by σ then put z within
          δz <= u·((2 + 2|μ|)/σ + 4|z|), using |log x| <= |μ| + σ|z|.
        - *erfc.*  Each Φ(±z) = erfc(∓z/√2)/2 is off by at most
          φ(z)·(δz + 2u|z|) (the division by a rounded √2) plus libm's
          relative error, taken as ``_ERFC_ULPS`` = 8 ulps (glibc documents
          5), E = 16u.  As φ <= 0.4 and |z|·φ(z) <= φ(1) < 0.25, that is
          u·A, A = 0.8(1 + |μ|)/σ + 1.5 + E, on every Φ value.
        - *shift.*  The mean shift = exp(μ + σ²/2) is within
          u·(2 + |μ| + σ²) relative.  In an antiderivative term shift·Φ(±(z
          − σ)), shift·φ(z − σ) = x·φ(z), so the argument error, with z − σ
          rounded once more, adds x·u·B, B = 0.8(1 + |μ|)/σ + 1.75 + 1.2σ,
          and the relative errors (erfc, shift, product, the subtraction
          from x·Φ) add shift·Φ·u·G, G = E + 4 + |μ| + σ².
        - *Cancellation in ``_tail_integral``.*  Its four terms are not
          small against their difference: x·Φ <= x <= (f+1)D, and
          shift·Φ(z − σ) <= x·Φ(z) in CDF form (the integral of I from 0
          is not negative), shift·Φ(σ − z) <= shift in survival form, which
          needs (f + ½)D >= the median, so shift/D <= C = min(shift/d_min,
          (f + ½)·exp(σ²/2)).  Divided by D, the two ends add u·((2f + 1)(A
          + B + 3) + 2(f + 1 + C)·G), the difference and the division by D
          2u more.
        - *The test.*  Φ at v adds u·A, its subtraction u.

        ε = 2u·(A + 4 + (2f + 1)(A + B + 3) + 2(f + 1 + C)·G) at f = F; it
        grows with f, so it bounds every lower family too.

        *Domain.*  ``margin`` is the mean test only where the interval's
        computed mass is positive, and falls back to quota − a parked mark
        elsewhere, which no ε bounds.  That takes one of two things.  Both
        of the interval's tail probabilities underflowing, which needs |z(v)|
        > 37, as v lies in the interval and the larger is at least
        Φ(−|z(v)|): |z(v)| > 30 is outside the domain.  Or an interval too narrow for
        the two Φ values to differ: inside |z(v)| <= 30 the larger is a
        normal float with relative error below ρ = u·(65(1 + |μ|)/σ + 5900 +
        E) (φ/Φ <= 32.5 there), while they differ by a relative
        0.14·min(Δz, 1) at least, Δz = log(1 + 1/f)/σ; a family with
        min(Δz, 1) < 64ρ, past 10¹⁰ on the benchmark laws, is outside it.
        """
        if not 0.0 < value < math.inf or not abs(self._z(value)) <= 30.0:
            return math.inf
        if not math.isfinite(top := value / d_min):
            return math.inf
        f, mu, sigma = math.floor(top), abs(self.log_vg), self.sigma
        e = 2.0 * _ERFC_ULPS
        rho = _U * (65.0 * (1.0 + mu) / sigma + 5900.0 + e)
        if f and min(math.log1p(1.0 / f) / sigma, 1.0) < 64.0 * rho:
            return math.inf
        a = 0.8 * (1.0 + mu) / sigma + 1.5 + e
        b = 0.8 * (1.0 + mu) / sigma + 1.75 + 1.2 * sigma
        g = e + 4.0 + mu + sigma ** 2
        c = self._shift / d_min
        if sigma ** 2 < 1400.0:  # exp(σ²/2) is finite
            c = min(c, (f + 0.5) * math.exp(0.5 * sigma ** 2))
        return 2.0 * _U * (a + 4.0 + (2 * f + 1) * (a + b + 3.0) + 2.0 * (f + 1 + c) * g)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        import numpy as np
        return np.exp(rng.normal(self.log_vg, self.sigma, size=n))


@dataclass(frozen=True)
class Uniform(PopulationDistribution):
    """Flat density on [v_lo, v_hi]."""

    v_lo: float
    v_hi: float

    kind = "uniform"

    def __post_init__(self) -> None:
        if not (0 <= self.v_lo < self.v_hi) or not math.isfinite(self.v_hi):
            raise ValueError(f"need 0 <= v_lo < v_hi finite, got [{self.v_lo}, {self.v_hi}]")

    @property
    def support(self) -> tuple[float, float]:
        return (self.v_lo, self.v_hi)

    def cdf(self, v: float) -> float:
        if v <= self.v_lo:
            return 0.0
        if v >= self.v_hi:
            return 1.0
        return (v - self.v_lo) / (self.v_hi - self.v_lo)

    def pdf(self, v: float) -> float:
        if self.v_lo <= v <= self.v_hi:
            return 1.0 / (self.v_hi - self.v_lo)
        return 0.0

    def cdf_diff(self, a: float, b: float) -> float:
        a = min(max(a, self.v_lo), self.v_hi)
        b = min(max(b, self.v_lo), self.v_hi)
        return max(b - a, 0.0) / (self.v_hi - self.v_lo)

    def _cdf_antideriv(self, v: float) -> float:
        width = self.v_hi - self.v_lo
        try:
            return 0.5 * (v - self.v_lo) ** 2 / width
        except OverflowError:  # (v − v_lo)^2 is beyond the float range, the antiderivative not
            return 0.5 * (v - self.v_lo) * ((v - self.v_lo) / width)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.v_lo, self.v_hi, size=n)


# --- the unbiased-mark condition ---------------------------------------------

_MARK_TOL = 1e-12
_MARK_MAX_ITERS = 200
_SIMPSON_MAX_DEPTH = 48


def _adaptive_simpson(fun: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature to absolute tolerance ``tol``."""

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        la, lb = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fla, flb = fun(la), fun(lb)
        left = simpson(x0, x1, f0, fla, f1)
        right = simpson(x1, x2, f1, flb, f2)
        if depth >= _SIMPSON_MAX_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, fla, f1, left, 0.5 * eps, depth + 1)
                + recurse(x1, x2, f1, flb, f2, right, 0.5 * eps, depth + 1))

    mid = 0.5 * (a + b)
    f0, f1, f2 = fun(a), fun(mid), fun(b)
    return recurse(a, b, f0, f1, f2, simpson(a, b, f0, f1, f2), tol, 0)


def _degenerate_mark(dist: PopulationDistribution, f: int, a: float, b: float) -> float:
    # no mass on (a, b): park the mark per the documented convention
    if dist.cdf(a) >= 1.0:
        return float(f + 1)  # all mass below fD
    if dist.cdf(b) <= 0.0:
        return float(f)      # all mass above (f+1)D
    return f + 0.5


def unbiased_mark(dist: PopulationDistribution, f: int, divisor: float,
                  *, generic: bool = False) -> float:
    """Mark r in [f, f+1] solving I(rD) = (1/D) ∫_{fD}^{(f+1)D} I(v) dv.

    A power law takes the divisor-independent closed form when
    [fD, (f+1)D] lies inside its support.  Otherwise the mark is bisected
    on the distribution's mean test, the one the rounding decides by.
    ``generic=True`` instead bisects on the interval-normalized CDF
    J(v) = (I(v) − I(fD)) / (I((f+1)D) − I(fD)) against its mean by
    adaptive Simpson quadrature, for any distribution; that is the
    reference the closed forms are cross-checked against.  An interval
    with no mass parks the mark at f + 1 (all mass below it), f (all
    mass above it) or f + 1/2.
    """
    if not 0 <= f <= sys.float_info.max or f != int(f):  # NaN fails the first test
        raise ValueError(f"family index must be a non-negative integer within the "
                         f"float range, got {f}")
    f = int(f)
    if not (divisor > 0) or not math.isfinite(divisor):
        raise ValueError(f"divisor must be positive and finite, got {divisor!r}")
    a, b = f * divisor, (f + 1) * divisor
    if not generic and isinstance(dist, PowerLaw) and dist.v_lo <= a and b <= dist.v_hi:
        return power_law_mark(dist.beta, f)

    test = dist._mean_test(f, divisor)
    if test is None:
        return _degenerate_mark(dist, f, a, b)
    ref, mean = test
    excess = lambda v: dist._test_at(v, ref, mean)
    if generic:
        delta = dist.cdf_diff(a, b)
        rhs = _adaptive_simpson(lambda v: dist.cdf_diff(a, v) / delta, a, b,
                                1e-12 * divisor) / divisor
        excess = lambda v: dist.cdf_diff(a, v) / delta - rhs
    lo, hi = float(f), float(f + 1)
    for _ in range(_MARK_MAX_ITERS):
        if hi - lo <= _MARK_TOL:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid * divisor) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def expected_family_bias(dist: PopulationDistribution, divisor: float, f: int,
                         mark: float) -> float:
    """Per-draw expected seats minus expected quota for family f.

    Evaluates (1/D) ∫_{fD}^{(f+1)D} I(v) dv − I(mark·D), the mean test the
    rounding decides by with its sign flipped; positive means the mark
    sits low enough that expected seats exceed expected quota.  It is 0.0
    on an interval with no mass.
    """
    if not (f <= mark <= f + 1):
        raise ValueError(f"mark {mark} outside [{f}, {f + 1}]")
    if not (divisor > 0) or not math.isfinite(divisor):
        raise ValueError(f"divisor must be positive and finite, got {divisor!r}")
    test = dist._mean_test(f, divisor)
    return 0.0 if test is None else -dist._test_at(mark * divisor, *test)


@dataclass
class DistributionMarks:
    """Divisor-dependent marks r(f, D), by default the unbiased ones.

    Satisfies the same rounding protocol as a signpost rule, so it plugs
    straight into the apportionment engine.  As its marks move with D it
    also provides ``margin(quota, f, divisor)``, a signed float that is
    >= 0 exactly when quota >= r(f, D); ``rounds_up`` is that sign, and
    the engine root-finds a crossing in D on its value.  With the default
    marks the margin is the distribution's mean test at the quota, the
    one ``unbiased_mark`` bisects on, with no mark solved; on an interval
    with no mass it is quota − the parked mark.  Over a power law, or
    with custom ``marks``, it is quota − ``mark_at``.  Nothing is cached.
    """

    distribution: PopulationDistribution
    marks: Callable[[int, float], float] | None = None

    #: marks move with the divisor; the engine must root-find crossings
    divisor_dependent = True

    def mark_at(self, f: int, divisor: float) -> float:
        if self.marks is not None:
            return self.marks(f, divisor)
        return unbiased_mark(self.distribution, f, divisor)

    def margin(self, quota: float, f: int, divisor: float) -> float:
        """Signed rounding margin, >= 0 exactly when quota >= r(f, D).

        The mean test is evaluated at quota·D by the distribution's
        ``_mean_test``/``_test_at`` pair, with no closure built: for a
        lognormal that is one straight-line computation per decision, on
        constants the law computed once.
        """
        dist = self.distribution
        if self.marks is not None or isinstance(dist, PowerLaw):
            return quota - self.mark_at(f, divisor)
        test = dist._mean_test(f, divisor)
        if test is None:
            return quota - _degenerate_mark(dist, f, f * divisor, (f + 1) * divisor)
        ref, mean = test
        return dist._test_at(quota * divisor, ref, mean)

    def margin_error(self, value: float, d_min: float) -> float:
        """ε with |margin(fl(v/D), f, D) − M| <= ε at every D >= ``d_min``, for
        population v = ``value``, f = floor(fl(v/D)) and M the exact mean test
        I(v) − ∫₀¹ I((f+t)D) dt; ``math.inf`` where the law declares none
        (every law but the lognormal, and custom ``marks``).

        M does not increase with D, as ∫₀¹ I((f+t)D) dt cannot fall.  So a
        margin >= 2ε at D means v/D' rounds up past f at every D' in
        [d_min, D] where floor(fl(v/D')) is still f, and one < −2ε that it
        rounds down at every D' >= D where it is: the engine's state-mode
        seat bounds count only those decisions.
        """
        if self.marks is not None:
            return math.inf
        return self.distribution._margin_error(value, d_min)

    def rounds_up(self, quota: float, f: int, divisor: float) -> bool:
        return self.margin(quota, f, divisor) >= 0.0

    def __str__(self) -> str:
        return f"marks({self.distribution.kind})"


@dataclass(frozen=True)
class ImmunityReport:
    """Finite-difference check that r(f, D)·D never decreases in D.

    A negative slope means the marks move down-ruler faster than the
    population ruler as D falls, which is exactly the opening the
    Alabama paradox needs.
    """

    f: int
    d_grid: tuple[float, ...]
    rd_values: tuple[float, ...]
    slopes: tuple[float, ...]
    violations: tuple[tuple[float, float, float], ...]  # (d_left, d_right, slope)

    @property
    def ok(self) -> bool:
        return not self.violations


_SLOPE_TOL = -1e-8


def verify_alabama_immunity(source, f: int, d_grid) -> ImmunityReport:
    """Check d(r(f,D)·D)/dD >= 0 across a divisor grid.

    ``source`` may be a PopulationDistribution (its unbiased marks are
    used), anything with ``mark_at(f, D)``, or a bare callable
    ``(f, D) -> r``.
    """
    d_grid = tuple(float(d) for d in d_grid)
    if len(d_grid) < 2:
        raise ValueError("need at least two grid divisors")
    if any(d <= 0 for d in d_grid) or any(b <= a for a, b in zip(d_grid, d_grid[1:])):
        raise ValueError("d_grid must be positive and strictly ascending")
    if isinstance(source, PopulationDistribution):
        mark = lambda ff, d: unbiased_mark(source, ff, d)
    elif hasattr(source, "mark_at"):
        mark = source.mark_at
    elif callable(source):
        mark = source
    else:
        raise TypeError("source must be a distribution, marks object, or callable")
    rd = tuple(mark(f, d) * d for d in d_grid)
    slopes = tuple((r2 - r1) / (d2 - d1)
                   for (d1, r1), (d2, r2) in zip(zip(d_grid, rd), zip(d_grid[1:], rd[1:])))
    violations = tuple((d1, d2, s)
                       for d1, d2, s in zip(d_grid, d_grid[1:], slopes) if s < _SLOPE_TOL)
    return ImmunityReport(f, d_grid, rd, slopes, violations)


def sample_states(dist: PopulationDistribution, n: int, seed: int) -> tuple[StateProfile, ...]:
    """n i.i.d. populations from the distribution, deterministic per seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    import numpy as np
    rng = np.random.default_rng(seed)
    values = dist.sample(rng, n)
    width = len(str(n))
    return tuple(StateProfile(f"s{i + 1:0{width}d}", float(v))
                 for i, v in enumerate(values))


@dataclass(frozen=True)
class FamilyBias:
    """Monte Carlo bias estimate for one family."""

    f: int
    mean_bias: float
    std_error: float


_MC_CHUNK = 4096
# families a Monte Carlo run may reach: its running totals hold one row each
_MC_MAX_FAMILIES = 2 ** 20
# draws in one chunk, and replications in one run (float(replications) is exact)
_MC_MAX_DRAWS = 2 ** 24
_MC_MAX_REPLICATIONS = 2 ** 53


def monte_carlo_bias(dist: PopulationDistribution, divisor: float, marks,
                     replications: int, n_states: int, seed: int,
                     ) -> tuple[FamilyBias, ...]:
    """Empirical per-family mean of S_f − Q_f over repeated state draws.

    Each replication draws ``n_states`` populations, rounds every quota
    at the fixed divisor with ``marks`` (a signpost rule, marks object,
    or distribution, whose unbiased marks are then used), and records
    each family's seats-minus-quota total.  Returns the replication
    mean and standard error per family, for every family index up to
    the largest observed.

    Replications run in chunks of 4,096, each drawn from its own
    ``SeedSequence.spawn`` stream; the chunk size and that seeding are
    part of the byte-identical output contract.  A chunk sorts each
    replication's draws by family and sums every (replication, family)
    run, so its memory and time grow with 4,096 × ``n_states`` draws,
    plus one row per family for the running totals, not with
    replications × the largest family.  A mark is solved only for the
    families some draw reaches, once each.  A draw at or beyond family
    2**20 raises ``ValueError``: a heavy tail is refused before anything
    is sized by it.

    Sizes are refused up front with ``ValueError``: more than 2**53
    replications, where ``float(replications)`` stops being exact, and a
    chunk of more than 2**24 draws (min(replications, 4,096) ×
    ``n_states``).  A chunk's peak RSS grows by about 60 B per draw
    (numpy 2.4: 51 MB at 204,800 draws, 287 MB at 4.1M), so 2**24 draws
    keep one chunk near 1 GiB.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if n_states < 1:
        raise ValueError("need at least one state per replication")
    if replications > _MC_MAX_REPLICATIONS:
        raise ValueError(f"replications must be at most 2**53, got {replications:,}")
    if (draws := min(replications, _MC_CHUNK) * n_states) > _MC_MAX_DRAWS:
        raise ValueError(f"a chunk of {draws:,} draws (states × replications) is beyond "
                         f"the limit of {_MC_MAX_DRAWS:,}")
    if not (divisor > 0) or not math.isfinite(divisor):
        raise ValueError(f"divisor must be positive and finite, got {divisor!r}")
    if isinstance(marks, PopulationDistribution):
        marks = DistributionMarks(marks)
    if not hasattr(marks, "mark_at"):
        raise TypeError(f"marks must be a signpost rule, marks object or distribution, "
                        f"got {marks!r}")
    import numpy as np

    marks_of = np.zeros(0)  # mark of family f, NaN until a draw reaches f
    sum_t: np.ndarray = np.zeros(1)
    sum_t2: np.ndarray = np.zeros(1)

    def grow(arr: np.ndarray, size: int, fill: float = 0.0) -> np.ndarray:
        if size <= arr.size:
            return arr
        out = np.full(size, fill)
        out[: arr.size] = arr
        return out

    master = np.random.SeedSequence(seed)
    done = 0
    while done < replications:
        reps = min(_MC_CHUNK, replications - done)
        done += reps
        # each chunk's stream is spawned as it starts; k calls of spawn(1)
        # give the children of one spawn(k)
        rng = np.random.default_rng(master.spawn(1)[0])
        # a draw or a quota beyond the float range is inf, which is refused below
        with np.errstate(over="ignore"):
            v = dist.sample(rng, reps * n_states)
            q = v / divisor
        if not (q_max := float(q.max())) < _MC_MAX_FAMILIES:
            raise ValueError(f"a draw reaches family {np.floor(q_max):.0f}, beyond the "
                             f"limit of {_MC_MAX_FAMILIES:,} families")
        fam = np.floor(q).astype(np.int64)
        f_max = int(fam.max())
        width = f_max + 1
        # sort each replication's draws stably by family, so that every
        # (replication, family) run is contiguous and keeps its draw order
        order = np.argsort(fam.astype(np.min_scalar_type(f_max)).reshape(reps, n_states),
                           axis=1, kind="stable")
        order += np.arange(0, reps * n_states, n_states)[:, None]
        order = order.ravel()
        fam, q = fam[order], q[order]
        starts = np.empty(fam.size, dtype=bool)
        np.not_equal(fam[1:], fam[:-1], out=starts[1:])
        starts[::n_states] = True
        run_fam = fam[np.flatnonzero(starts)]
        marks_of = grow(marks_of, width, math.nan)
        for f in np.unique(run_fam[np.isnan(marks_of[run_fam])]).tolist():
            marks_of[f] = marks.mark_at(f, divisor)
        # engine.round_quota's decision, vectorised: an integral quota stands,
        # otherwise a quota at or above the mark rounds up (a test pins that
        # the two agree under constant marks)
        seats = fam + ((q > fam) & (q >= marks_of[fam]))
        # each run's total of seats - quota is summed in draw order, then each
        # family's run totals in replication order; float sums depend on
        # order, and the output contract fixes this one
        run_t = np.bincount(np.cumsum(starts) - 1, weights=seats - q)
        sum_t = grow(sum_t, width)
        sum_t2 = grow(sum_t2, width)
        sum_t[:width] += np.bincount(run_fam, weights=run_t, minlength=width)
        sum_t2[:width] += np.bincount(run_fam, weights=run_t * run_t, minlength=width)

    r = float(replications)
    out = []
    for f in range(sum_t.size):
        mean = sum_t[f] / r
        if replications > 1:
            var = max(sum_t2[f] - r * mean * mean, 0.0) / (r - 1.0)
            se = math.sqrt(var / r)
        else:
            se = math.nan
        out.append(FamilyBias(f, float(mean), float(se)))
    return tuple(out)
