"""Overflow-safe ln cosh, the one transcendental of the cycles' mode sums.

The partition function of the diagonalized chain factorizes over positive
momenta, Z = 2^L prod_{k>0} cosh^2(beta eps_k / 2), so the mode sums of
``cycles`` take ln cosh of beta eps_k / 2 on every mode.
"""

import math

import numpy as np


def lncosh(x):
    """ln cosh(x) as |x| + log1p(exp(-2|x|)) - ln 2; safe for |x| up to 1e6+."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)
