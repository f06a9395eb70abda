"""Brute-force cooperativity oracles (tests only).

``serial_chi_monte_carlo`` is the sampler as a plain loop: each batch draws
(k rho)^2 with ``rng.exponential`` and then k d_z with ``rng.normal`` from
its own ``SeedSequence`` child and averages the kernel over them.  The
package runs the same draws on a thread pool, so the two must agree to the
last bit.

``two_position_chi_monte_carlo`` is the sampler before it drew separations
from their law: each batch draws both 3-D positions with
``rng.normal(0.0, scales, (size, 3))`` and averages the kernel over their
difference.  It estimates the same chi from different draws.

``chi_quadrature_kernel`` evaluates the two-branch disk integral of the
angular emission factor for a single separation and serves as the oracle
for the sinc reduction used by the sampler.

``pair_kernel`` is the sampler's kernel on separation vectors (..., 3),
the form in which the tests compare it with the formula and the
quadrature.

``grid_chi_continuum`` is the continuum chi by composite Simpson on a
graded grid, the numerical counterpart of ``chi_quadrature``'s closed form.
"""

import math

import numpy as np
from scipy.integrate import simpson

from qmemread import ParamError
from qmemread.collective import _kernel


class QuadratureError(RuntimeError):
    """Kernel quadrature failed to converge within its order budget."""


def _batches(n_samples, seed, n_batches):
    sizes = np.full(n_batches, n_samples // n_batches, dtype=int)
    sizes[: n_samples % n_batches] += 1
    return sizes, np.random.SeedSequence(seed).spawn(n_batches)


def _estimate(geom, means, sizes):
    overall = float(np.dot(means, sizes) / sizes.sum())
    se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return 1.0 + geom.n_atoms * overall, geom.n_atoms * se


def serial_chi_monte_carlo(geom, n_samples, seed, n_batches=30):
    """(value, standard_error) of the pair sampler, one batch after another.

    Each pair draws (k rho)^2 = (2kW)^2 E, E ~ Exp(1), and k d_z =
    sqrt(2) kL Z, Z ~ N(0, 1).
    """
    k = geom.wavenumber_per_m
    rho2_scale = (2.0 * k * geom.waist_m) ** 2
    z_scale = math.sqrt(2.0) * k * geom.length_m
    sizes, children = _batches(n_samples, seed, n_batches)
    means = np.empty(n_batches)
    for i, (sz, child) in enumerate(zip(sizes, children)):
        rng = np.random.default_rng(child)
        kr2 = rng.exponential(rho2_scale, sz)
        kz = rng.normal(0.0, z_scale, sz)
        kr = np.sqrt(kr2 + kz * kz)
        means[i] = (np.cos(kz) * np.sinc(kr / np.pi)).mean()
    return _estimate(geom, means, sizes)


def two_position_chi_monte_carlo(geom, n_samples, seed, n_batches=30):
    """(value, standard_error) from pairs of independent 3-D positions."""
    scales = np.array([geom.waist_m, geom.waist_m, geom.length_m])
    sizes, children = _batches(n_samples, seed, n_batches)
    means = np.empty(n_batches)
    for i, (sz, child) in enumerate(zip(sizes, children)):
        rng = np.random.default_rng(child)
        d = two_position_separations(rng, scales, sz)
        means[i] = pair_kernel(d, geom.wavenumber_per_m).mean()
    return _estimate(geom, means, sizes)


def two_position_separations(rng, scales, size):
    """(size, 3) differences of two positions drawn N(0, diag(scales^2))."""
    r_exc = rng.normal(0.0, scales, (size, 3))
    r_atom = rng.normal(0.0, scales, (size, 3))
    return r_atom - r_exc


def pair_kernel(d, k) -> np.ndarray:
    """Angular emission kernel for atom-pair separation(s) d (..., 3) in m.

    K(d) = Re[exp(-i k d_z) sinc(k |d|)] with sinc x = sin x / x; K(0) = 1.
    """
    d_arr = np.asarray(d, dtype=float)
    dx, dy, dz = d_arr[..., 0], d_arr[..., 1], d_arr[..., 2]
    return _kernel(k * dz, k * np.sqrt(dx * dx + dy * dy + dz * dz))


def chi_quadrature_kernel(d, k, rel_tol=1e-8, max_order=2048) -> float:
    """Disk quadrature of the two-branch angular integral for separation d.

    Integrates over the transverse wavevector disk q_x^2 + q_y^2 <= k^2 with
    both longitudinal branches k_z = +-sqrt(k^2 - q^2); the substitution
    q = k sin(a) absorbs the spherical surface measure and removes the rim
    singularity.  Converges to the sinc reduction of ``pair_kernel``.
    Gauss-Legendre order is doubled until two successive estimates agree to
    ``rel_tol``.
    """
    if not k > 0:
        raise ParamError(["k"], "wavenumber must be > 0")
    dx, dy, dz = (float(v) for v in np.asarray(d, dtype=float))

    def estimate(n):
        x, wx = np.polynomial.legendre.leggauss(n)
        alpha = (x + 1.0) * (np.pi / 4.0)     # polar angle of the upper branch
        w_alpha = wx * (np.pi / 4.0)
        phi = (x + 1.0) * np.pi
        w_phi = wx * np.pi
        q = k * np.sin(alpha)[:, None]
        kz = k * np.cos(alpha)[:, None]
        trans = np.exp(-1j * q * (np.cos(phi)[None, :] * dx + np.sin(phi)[None, :] * dy))
        branches = np.exp(-1j * (k - kz) * dz) + np.exp(-1j * (k + kz) * dz)
        weights = (w_alpha * np.sin(alpha))[:, None] * w_phi[None, :]
        return float(np.sum(weights * (trans * branches).real) / (4.0 * np.pi))

    prev = estimate(64)
    n = 128
    while n <= max_order:
        cur = estimate(n)
        if abs(cur - prev) <= max(rel_tol * abs(cur), 1e-12):
            return cur
        prev, n = cur, n * 2
    raise QuadratureError(f"kernel quadrature did not converge at order {max_order} "
                          f"(last delta {abs(cur - prev):.3g})")


def grid_chi_continuum(geom, n_points=4001) -> float:
    """Continuum chi = 1 + N <K> by composite Simpson on a graded grid.

    <K> = 1/2 int_0^2 exp(-k^2 W^2 v (2 - v) - k^2 L^2 v^2) dv; the first
    ``n_points`` resolve the integrand's support v ~ 1/(2 (kW)^2), and a
    second run of ``n_points`` covers the rest of [0, 2].
    """
    if geom.n_atoms == 0:
        return 1.0
    k, w, l = geom.wavenumber_per_m, geom.waist_m, geom.length_m
    a = (k * w) ** 2
    b = (k * l) ** 2
    v_scale = min(2.0, 40.0 / max(2.0 * a, 1.0))
    parts = [np.linspace(0.0, v_scale, n_points)]
    if v_scale < 2.0:
        parts.append(np.linspace(v_scale, 2.0, n_points)[1:])
    total = 0.0
    for v in parts:
        total += simpson(np.exp(-a * v * (2.0 - v) - b * v * v), x=v)
    return float(1.0 + geom.n_atoms * 0.5 * total)
