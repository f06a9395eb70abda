"""Serial pair-sampler oracle for ``chi_monte_carlo`` (tests only).

``serial_chi_monte_carlo`` is the sampler as a plain loop: each batch draws
both positions with ``rng.normal(0.0, scales, (size, 3))`` from its own
``SeedSequence`` child and averages the kernel over the (size, 3)
separation array.  The package runs the same draws on a thread pool through
a per-component kernel, so the two must agree to the last bit.
"""

import math

import numpy as np


def serial_chi_monte_carlo(geom, n_samples, seed, n_batches=30):
    """(value, standard_error) of the pair sampler, one batch after another."""
    scales = np.array([geom.waist_m, geom.waist_m, geom.length_m])
    k = geom.wavenumber_per_m
    sizes = np.full(n_batches, n_samples // n_batches, dtype=int)
    sizes[: n_samples % n_batches] += 1
    children = np.random.SeedSequence(seed).spawn(n_batches)
    means = np.empty(n_batches)
    for i, (sz, child) in enumerate(zip(sizes, children)):
        rng = np.random.default_rng(child)
        r_exc = rng.normal(0.0, scales, (sz, 3))
        r_atom = rng.normal(0.0, scales, (sz, 3))
        d = r_atom - r_exc
        r = np.sqrt(np.sum(d * d, axis=-1))
        means[i] = (np.cos(k * d[..., 2]) * np.sinc(k * r / np.pi)).mean()
    overall = float(np.dot(means, sizes) / sizes.sum())
    se = float(np.std(means, ddof=1) / math.sqrt(n_batches))
    return 1.0 + geom.n_atoms * overall, geom.n_atoms * se
