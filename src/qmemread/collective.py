"""Cooperative enhancement of the readout decay from ensemble geometry.

The phase-matched collective decay of a shared single excitation is
enhanced over the single-atom rate by a factor chi >= 1 determined by the
cloud geometry.  Three independent estimators are provided:

* ``chi_closed_form``   : chi = 1 + N / (2 W^2 k^2), valid in the paraxial,
  pencil-shaped regime 1/W << k and L/(W^2 k) << 1;
* ``chi_quadrature``    : the exact continuum value 1 + N <K>, the pair
  kernel averaged over the Gaussian cloud in closed form.  With
  a = (kW)^2, b = (kL)^2 and c = b - a,

      <K> = 1/2 int_0^2 exp(-2 a v - c v^2) dv
          = Re{ sqrt(pi) / (4 sqrt(c)) [w(i a/sqrt(c))
                                        - e^{-4b} w(i (2c + a)/sqrt(c))] } ,

  w the Faddeeva function (erfcx(x) = w(i x)) and sqrt(c) complex, so one
  form covers c > 0 and c < 0; c = 0 gives (1 - e^{-4a}) / (4a).  Where
  the integrand is nearly flat (a + |c| < 1) the two terms cancel, and a
  12-node Gauss-Legendre rule, exact to rounding there, replaces them.
  Measured relative error in <K> below 2e-15 against 40-digit quadrature
  for kW from 1e-6 to 3e3;
* ``chi_monte_carlo``   : direct sampling of atom pairs with the pair
  kernel K(d) = Re[exp(-i k d_z) sinc(k |d|)] summed as 1 + N <K>; its
  seeded batches run on the package's one worker pool (``_in_order``),
  and the result does not depend on worker count or scheduling.

A cooperativity chi implies a branching ratio 2 chi - 1 between the decay
back to the initial ground state (photon extracted) and the decay that
returns the excitation to storage, hence a first-decay extraction ceiling
(2 chi - 1) / (2 chi); chi = 1 gives the bare-ensemble 50% limit.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .counting import _in_order
from .params import ParamError

# validity thresholds for the closed form (ratios that must be << 1)
_REGIME_RATIO = 0.1

_QUARTER_SQRT_PI = 0.25 * math.sqrt(math.pi)
# Gauss-Legendre rule on [-1, 1] for the flat-integrand branch of <K>
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class EnsembleGeometry:
    """Gaussian cloud seen by the detected mode.

    n_atoms      : atoms inside the mode volume, >= 0
    waist_m      : transverse 1/e^2 mode waist W, m
    length_m     : cloud rms length L along the mode axis, m
    wavenumber_per_m : optical wavenumber k, 1/m
    """

    n_atoms: float
    waist_m: float
    length_m: float
    wavenumber_per_m: float

    def __post_init__(self):
        bad = []
        if not (self.n_atoms >= 0 and math.isfinite(self.n_atoms)):
            bad.append("n_atoms")
        if not (self.waist_m > 0 and math.isfinite(self.waist_m)):
            bad.append("waist_m")
        if not (self.length_m > 0 and math.isfinite(self.length_m)):
            bad.append("length_m")
        if not (self.wavenumber_per_m > 0 and math.isfinite(self.wavenumber_per_m)):
            bad.append("wavenumber_per_m")
        if bad:
            raise ParamError(bad)

    @property
    def regime_flags(self) -> dict:
        """True where an approximation regime holds (1/(Wk) << 1, 1/(Lk) << 1)."""
        w, l, k = self.waist_m, self.length_m, self.wavenumber_per_m
        return {
            "waist_resolved": 1.0 / (w * k) <= _REGIME_RATIO,
            "length_resolved": 1.0 / (l * k) <= _REGIME_RATIO,
            "pencil_shaped": l / (w * w * k) <= _REGIME_RATIO,
        }


@dataclass(frozen=True)
class ChiEstimate:
    """A cooperativity estimate with its statistical standard error."""

    value: float
    standard_error: float
    method: str = ""

    def __post_init__(self):
        if not self.value >= 1.0 - 3.0 * self.standard_error:
            raise ParamError(["value"],
                             f"chi estimate {self.value:g} below 1 by more than "
                             f"3 standard errors ({self.standard_error:g})")


def chi_closed_form(geom: EnsembleGeometry) -> ChiEstimate:
    """chi = 1 + N / (2 W^2 k^2); exact-zero standard error.

    Warns when the geometry is outside the validity regime of the formula
    (mode waist not optically resolved, or cloud not pencil-shaped).
    """
    flags = geom.regime_flags
    if not (flags["waist_resolved"] and flags["pencil_shaped"]):
        warnings.warn("geometry outside the closed-form validity regime "
                      f"(flags: {flags})", stacklevel=2)
    w, k = geom.waist_m, geom.wavenumber_per_m
    value = 1.0 + geom.n_atoms / (2.0 * w * w * k * k)
    return ChiEstimate(value=value, standard_error=0.0, method="closed-form")


def _kernel_xyz(dx, dy, dz, k):
    """Pair kernel K(d) = Re[exp(-i k d_z) sinc(k |d|)] (sinc x = sin x / x,
    K(0) = 1) on the three separation components, each an array."""
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    return np.cos(k * dz) * np.sinc(k * r / np.pi)


def _batch_mean(size, seed_seq, scales, k) -> float:
    """Mean pair kernel over one batch of ``size`` sampled pairs.

    Runs on a worker thread, so it calls no public function of this module
    (those may be wrapped by callers that are not thread-safe).  Scaling a
    standard-normal column by a scalar gives the same bits as
    ``rng.normal(0.0, scale)``.
    """
    rng = np.random.default_rng(seed_seq)
    r_exc = rng.standard_normal((size, 3))
    r_atom = rng.standard_normal((size, 3))
    dx, dy, dz = (r_atom[:, j] * s - r_exc[:, j] * s
                  for j, s in enumerate(scales))
    return _kernel_xyz(dx, dy, dz, k).mean()


def chi_monte_carlo(geom: EnsembleGeometry, n_samples, seed,
                    n_batches=30) -> ChiEstimate:
    """Sampled-pair estimate of chi, deterministic for a fixed seed.

    Draws the stored-excitation position from the excitation distribution
    (the normalized cloud density) and a partner atom from the same cloud,
    averages the pair kernel and reports 1 + N <K>.  The standard error
    comes from the scatter of ``n_batches`` near-equal batches
    (2 <= n_batches <= n_samples), each with its own seed derived from
    ``seed``.  The batches run on ``counting._in_order``'s thread pool,
    sized to the CPUs this process may use, which yields the batch means
    in batch order; since each batch owns its seed, the result is the
    same to the last bit for any worker count or scheduling.
    """
    if n_samples < 100:
        raise ParamError(["n_samples"], "need n_samples >= 100")
    if not 2 <= n_batches <= n_samples:
        raise ParamError(["n_batches"],
                         f"need 2 <= n_batches <= n_samples, got {n_batches}")
    if geom.n_atoms == 0:
        return ChiEstimate(value=1.0, standard_error=0.0, method="monte-carlo")
    scales = (geom.waist_m, geom.waist_m, geom.length_m)
    k = geom.wavenumber_per_m
    sizes = np.full(n_batches, n_samples // n_batches, dtype=int)
    sizes[: n_samples % n_batches] += 1
    children = np.random.SeedSequence(seed).spawn(n_batches)
    tasks = zip(sizes, children, repeat(scales), repeat(k))
    means = np.fromiter(_in_order(_batch_mean, tasks), dtype=float,
                        count=n_batches)
    overall = float(np.dot(means, sizes) / sizes.sum())
    se = float(np.std(means, ddof=1) / math.sqrt(n_batches))
    return ChiEstimate(value=1.0 + geom.n_atoms * overall,
                       standard_error=geom.n_atoms * se,
                       method="monte-carlo")


def _mean_kernel(a, b) -> float:
    """<K> = 1/2 int_0^2 exp(-2 a v - (b - a) v^2) dv for a, b >= 0.

    The Faddeeva form subtracts two tails of size up to ~1/(a + sqrt|c|)
    that nearly cancel when the integrand is flat, so its relative error
    grows roughly as eps/(a + sqrt|c|): 1.4e-13 at kW = 0.01 and 1.2e-8 at
    kW = 1e-6.  Below a + |c| = 1 the exponent stays within [-4, 4] over
    [0, 2], and a 12-node Gauss-Legendre rule is exact to rounding there.
    """
    c = b - a
    if c == 0.0:
        return 1.0 if a == 0.0 else -math.expm1(-4.0 * a) / (4.0 * a)
    if a + abs(c) < 1.0:
        v = 1.0 + _GL_NODES
        return 0.5 * float(np.dot(_GL_WEIGHTS, np.exp(-2.0 * a * v - c * v * v)))
    # imported here, so importing the package does not pay for scipy.special
    from scipy.special import wofz
    root = cmath.sqrt(c)
    return float((_QUARTER_SQRT_PI / root
                  * (wofz(1j * a / root)
                     - math.exp(-4.0 * b) * wofz(1j * (2.0 * c + a) / root))).real)


def chi_quadrature(geom: EnsembleGeometry) -> ChiEstimate:
    """Exact continuum (cloud-averaged) estimate of chi, 1 + N <K>.

    The Gaussian average of the pair kernel over both positions reduces to a
    single integral over v = 1 + cos(theta) of the emission direction.
    With a = (kW)^2, b = (kL)^2 and c = b - a,

        <K> = 1/2 int_0^2 exp(-2 a v - c v^2) dv
            = Re{ sqrt(pi) / (4 sqrt(c)) [w(i a/sqrt(c))
                                          - e^{-4b} w(i (2c + a)/sqrt(c))] } ,

    w the Faddeeva function and sqrt(c) complex, for either sign of c;
    c = 0 gives (1 - e^{-4a}) / (4a), and 1 at a = 0.  Below a + |c| = 1,
    where the two terms cancel, a 12-node Gauss-Legendre rule takes over.
    Measured relative error in <K> below 2e-15 against 40-digit quadrature
    over kW from 1e-6 to 3e3, L/W from 0.03 to 30 and |c|/b down to 1e-14.
    This is the same population target the pair sampler estimates, without
    sampling noise.
    """
    if geom.n_atoms == 0:
        return ChiEstimate(value=1.0, standard_error=0.0, method="quadrature")
    k = geom.wavenumber_per_m
    a = (k * geom.waist_m) ** 2
    b = (k * geom.length_m) ** 2
    return ChiEstimate(value=1.0 + geom.n_atoms * _mean_kernel(a, b),
                       standard_error=0.0, method="quadrature")


def branching_ratio(chi) -> float:
    """Ratio of extraction decay to storage-return decay: 2 chi - 1."""
    if chi < 1:
        raise ParamError(["chi"], "chi must be >= 1")
    return 2.0 * chi - 1.0


def extraction_ceiling(chi) -> float:
    """Fraction of first decays that extract the photon: (2 chi - 1)/(2 chi).

    Equals 1/2 at chi = 1 (the no-enhancement efficiency limit) and tends
    to 1 as chi grows.
    """
    if chi < 1:
        raise ParamError(["chi"], "chi must be >= 1")
    return (2.0 * chi - 1.0) / (2.0 * chi)
