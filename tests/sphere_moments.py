"""Test-side checks of the sphere moment E[(v_1)_+] that the package's
closed form ``sphere_cos_plus_mean`` is compared against: a closed-form
bracket and a Monte-Carlo estimate. Criterion 6 and ``test_stationary``
use them; nothing in ``poisson_sgd`` does.
"""

import math

import numpy as np

from poisson_sgd.sampler import as_generator


def cos_plus_bracket(d: int) -> tuple[float, float]:
    """Bracket [1/sqrt(2 pi d), 1/sqrt(2 pi (d-1))] containing E[(v_1)_+], d >= 2."""
    if int(d) != d or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    return 1.0 / math.sqrt(2.0 * math.pi * d), 1.0 / math.sqrt(2.0 * math.pi * (d - 1))


def estimate_cos_plus_moment(d: int, n: int, rng) -> tuple[float, float]:
    """Monte-Carlo (mean, standard error) of (v_1)_+ over n uniform sphere draws.

    Draws standard normals and normalizes; only the first coordinate's
    positive part is kept, so memory stays O(n) even for large d.
    """
    gen = as_generator(rng)
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    first = np.empty(n)
    block = 1_000_000 // max(1, d)
    done = 0
    while done < n:
        take = min(block, n - done)
        x = gen.standard_normal((take, int(d)))
        first[done : done + take] = x[:, 0] / np.linalg.norm(x, axis=1)
        done += take
    plus = np.maximum(first, 0.0)
    return float(plus.mean()), float(plus.std(ddof=1) / math.sqrt(n))
