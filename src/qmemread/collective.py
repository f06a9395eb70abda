"""Cooperative enhancement of the readout decay from ensemble geometry.

The phase-matched collective decay of a shared single excitation is
enhanced over the single-atom rate by a factor chi >= 1 determined by the
cloud geometry.  Three independent estimators are provided:

* ``chi_closed_form``   : chi = 1 + N / (2 W^2 k^2), valid in the paraxial,
  pencil-shaped regime 1/W << k and L/(W^2 k) << 1;
* ``chi_quadrature``    : the exact continuum value 1 + N <K>, the pair
  kernel averaged over the Gaussian cloud in closed form: one Faddeeva
  expression in a = (kW)^2 and b = (kL)^2 (see its docstring), good to
  2e-15 relative in <K> against 40-digit quadrature for kW from 1e-6 to 3e3;
* ``chi_monte_carlo``   : 1 + N <K> with <K> the mean of the pair kernel
  K(d) = Re[exp(-i k d_z) sinc(k |d|)] over sampled pairs.  Two positions
  drawn independently from the cloud, N(0, diag(W^2, W^2, L^2)), differ by
  d ~ N(0, diag(2W^2, 2W^2, 2L^2)).  K depends on d only through d_z and
  rho^2 = d_x^2 + d_y^2, and the sum of two squared N(0, 2W^2) variables is
  2W^2 times a chi-square with two degrees of freedom, i.e. 4W^2 E with
  E ~ Exp(1).  So each pair is drawn exactly as rho^2 = 4W^2 E and
  d_z = sqrt(2) L Z, Z ~ N(0, 1) independent of E: two draws, not six.
  Its seeded batches run on the package's one worker pool (``_in_order``),
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
# seeded batches of the pair sampler; their scatter gives its standard error
_N_BATCHES = 30
# the most pairs one estimate samples, 100 times the CLI's default
_MAX_SAMPLES = 10**8
# the range of (kW)^2 and (kL)^2, within which the estimators' squares and
# products of kW and kL stay finite and nonzero
_KX2_RANGE = (1e-100, 1e100)

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

    Each value is finite, (kW)^2 and (kL)^2 lie within [1e-100, 1e100],
    and the closed-form chi = 1 + N / (2 (kW)^2) and 2 chi - 1 are finite.
    Construction raises ParamError naming the fields out of bounds.
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
        lo, hi = _KX2_RANGE
        for name, symbol, size in (("waist_m", "kW", self.waist_m),
                                   ("length_m", "kL", self.length_m)):
            kx = self.wavenumber_per_m * size
            if not lo <= kx * kx <= hi:     # kx * kx: inf, not OverflowError
                raise ParamError([name, "wavenumber_per_m"],
                                 f"({symbol})^2 = {kx * kx:g} is outside "
                                 f"[{lo:g}, {hi:g}]: {name}, wavenumber_per_m")
        chi = _closed_form(self)
        if not math.isfinite(2.0 * chi - 1.0):
            raise ParamError(["n_atoms", "waist_m", "wavenumber_per_m"],
                             f"chi = 1 + N / (2 (kW)^2) = {chi:g}: need chi "
                             "and 2 chi - 1 finite: n_atoms, waist_m, "
                             "wavenumber_per_m")

    @property
    def regime_flags(self) -> dict:
        """True where an approximation regime holds (1/(Wk) << 1, 1/(Lk) << 1).

        Formed from kW and kL, whose squares the domain keeps normal: W^2
        alone can underflow.
        """
        kw = self.wavenumber_per_m * self.waist_m
        kl = self.wavenumber_per_m * self.length_m
        return {
            "waist_resolved": 1.0 / kw <= _REGIME_RATIO,
            "length_resolved": 1.0 / kl <= _REGIME_RATIO,
            "pencil_shaped": kl / (kw * kw) <= _REGIME_RATIO,
        }


def chi_closed_form(geom: EnsembleGeometry) -> float:
    """chi = 1 + N / (2 W^2 k^2), an exact number with no sampling error.

    Warns when the geometry is outside the validity regime of the formula
    (mode waist not optically resolved, or cloud not pencil-shaped).
    """
    flags = geom.regime_flags
    if not (flags["waist_resolved"] and flags["pencil_shaped"]):
        warnings.warn("geometry outside the closed-form validity regime "
                      f"(flags: {flags})", stacklevel=2)
    return _closed_form(geom)


def _closed_form(geom) -> float:
    """chi = 1 + N / (2 (kW)^2), from kW: W^2 alone can underflow."""
    kw = geom.wavenumber_per_m * geom.waist_m
    return 1.0 + geom.n_atoms / (2.0 * (kw * kw))


def _kernel(kz, kr):
    """Pair kernel K = cos(k d_z) sinc(k |d|) (sinc x = sin x / x, K(0) = 1)
    on the arrays kz = k d_z and kr = k |d|."""
    return np.cos(kz) * np.sinc(kr / np.pi)


def _batch_mean(size, seed_seq, scales) -> float:
    """Mean pair kernel over one batch of ``size`` sampled pairs.

    A pair's separation d ~ N(0, diag(2W^2, 2W^2, 2L^2)) enters K only as
    (k rho)^2 = (2kW)^2 E, E ~ Exp(1) (the two squared transverse components
    sum to 2W^2 times a chi-square with two degrees of freedom, i.e. 4W^2
    E), and k d_z = sqrt(2) kL Z, Z ~ N(0, 1); ``scales`` holds (2kW)^2 and
    sqrt(2) kL.  Runs on a worker thread, so it calls no public function of
    this module (callers may wrap those with recorders not thread-safe).
    """
    rng = np.random.default_rng(seed_seq)
    kr2 = rng.standard_exponential(size) * scales[0]
    kz = rng.standard_normal(size) * scales[1]
    return _kernel(kz, np.sqrt(kr2 + kz * kz)).mean()


def chi_monte_carlo(geom: EnsembleGeometry, n_samples,
                    seed) -> tuple[float, float]:
    """Sampled-pair estimate (chi, standard error), deterministic for a
    fixed seed.

    Averages the pair kernel over separations of the stored-excitation
    position (drawn from the normalized cloud density) and a partner atom
    of the same cloud, and returns chi = 1 + N <K> and its standard error
    as two floats; near chi = 1 the sampled chi may lie below 1 by chance.
    The two positions differ by N(0, diag(2W^2, 2W^2, 2L^2)), so each pair
    draws only rho^2 = 4W^2 E and d_z = sqrt(2) L Z (E ~ Exp(1),
    Z ~ N(0, 1); rho^2 is 2W^2 times a chi-square with two degrees of
    freedom).  The standard error comes from the scatter of 30 near-equal
    batches (n_samples >= 100 keeps each non-empty), each with its own
    seed derived from ``seed``.  The batches run on
    ``counting._in_order``'s thread pool, sized to the CPUs this process
    may use, which yields the batch means in batch order; since each batch
    owns its seed, the result is the same to the last bit for any worker
    count or scheduling.  ``n_samples`` must lie in [100, 1e8]; the bound
    keeps the batches in flight within memory.
    """
    if n_samples < 100:
        raise ParamError(["n_samples"], "need n_samples >= 100")
    if n_samples > _MAX_SAMPLES:
        raise ParamError(["n_samples"],
                         f"need n_samples <= {_MAX_SAMPLES:.0e}")
    if geom.n_atoms == 0:
        return 1.0, 0.0
    k = geom.wavenumber_per_m
    scales = ((2.0 * k * geom.waist_m) ** 2, math.sqrt(2.0) * k * geom.length_m)
    sizes = np.full(_N_BATCHES, n_samples // _N_BATCHES, dtype=int)
    sizes[: n_samples % _N_BATCHES] += 1
    children = np.random.SeedSequence(seed).spawn(_N_BATCHES)
    tasks = zip(sizes, children, repeat(scales))
    means = np.fromiter(_in_order(_batch_mean, tasks), dtype=float,
                        count=_N_BATCHES)
    overall = float(np.dot(means, sizes) / sizes.sum())
    se = float(np.std(means, ddof=1) / math.sqrt(_N_BATCHES))
    return 1.0 + geom.n_atoms * overall, geom.n_atoms * se


def _mean_kernel(a, b) -> float:
    """<K> = 1/2 int_0^2 exp(-2 a v - (b - a) v^2) dv for a, b > 0.

    The Faddeeva form subtracts two tails of size up to ~1/(a + sqrt|c|)
    that nearly cancel when the integrand is flat, so its relative error
    grows roughly as eps/(a + sqrt|c|): 1.4e-13 at kW = 0.01 and 1.2e-8 at
    kW = 1e-6.  Below a + |c| = 1 the exponent stays within [-4, 4] over
    [0, 2], and a 12-node Gauss-Legendre rule is exact to rounding there.
    """
    c = b - a
    if c == 0.0:
        return -math.expm1(-4.0 * a) / (4.0 * a)
    if a + abs(c) < 1.0:
        v = 1.0 + _GL_NODES
        return 0.5 * float(np.dot(_GL_WEIGHTS, np.exp(-2.0 * a * v - c * v * v)))
    # imported here, so importing the package does not pay for scipy.special
    from scipy.special import wofz
    root = cmath.sqrt(c)
    return float((_QUARTER_SQRT_PI / root
                  * (wofz(1j * a / root)
                     - math.exp(-4.0 * b) * wofz(1j * (2.0 * c + a) / root))).real)


def chi_quadrature(geom: EnsembleGeometry) -> float:
    """Exact continuum (cloud-averaged) estimate of chi, 1 + N <K>.

    The Gaussian average of the pair kernel over both positions reduces to a
    single integral over v = 1 + cos(theta) of the emission direction.
    With a = (kW)^2, b = (kL)^2 and c = b - a,

        <K> = 1/2 int_0^2 exp(-2 a v - c v^2) dv
            = Re{ sqrt(pi) / (4 sqrt(c)) [w(i a/sqrt(c))
                                          - e^{-4b} w(i (2c + a)/sqrt(c))] } ,

    w the Faddeeva function and sqrt(c) complex, for either sign of c;
    c = 0 gives (1 - e^{-4a}) / (4a).  Below a + |c| = 1,
    where the two terms cancel, a 12-node Gauss-Legendre rule takes over.
    Measured relative error in <K> below 2e-15 against 40-digit quadrature
    over kW from 1e-6 to 3e3, L/W from 0.03 to 30 and |c|/b down to 1e-14.
    This is the same population target the pair sampler estimates, without
    sampling noise.
    """
    if geom.n_atoms == 0:
        return 1.0
    k = geom.wavenumber_per_m
    a = (k * geom.waist_m) ** 2
    b = (k * geom.length_m) ** 2
    return 1.0 + geom.n_atoms * _mean_kernel(a, b)


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
