"""Closed forms of the stationary intensities that the CLI compares against.

`compare-oracles` compares the solver's enhancement factor with
`alpha_closed_form`, built from the saturation polynomials.  The other
closed forms of the paper, which only tests read, are in
`tests/closed_forms.py`.
"""

import numpy as np


def polynomials(s):
    """Saturation polynomials (R1, R2, P) of the stationary intensities."""
    s = np.asarray(s, dtype=float)
    r1 = (2.0 / 9.0) * (6912 * s + 3168 * s**2 + 264 * s**3 + 20 * s**4 + s**5)
    r2 = (1.0 / 3.0) * (1152 * s + 528 * s**2 + 132 * s**3 + 7 * s**4)
    p = (1 + s) ** 2 * (12 + s) * (32 + 20 * s + s**2)
    return r1, r2, p


def alpha_closed_form(s):
    """Enhancement factor alpha(s) = 1 + R1 / ((4+s) R2).

    The s -> 0 limit is 2 (perfect two-wave contrast); s -> infinity
    gives 23/21.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    r1, r2, _ = polynomials(s)
    # the s -> 0 limit of R1/R2 is 4, hence alpha(0) = 2
    ratio = np.divide(r1, (4 + s) * r2, out=np.ones_like(s), where=s > 0)
    alpha = 1.0 + ratio
    return float(alpha[0]) if scalar else alpha
