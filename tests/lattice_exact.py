"""Exact stencil constants and the equilibrium populations, for checks of
`ade.lattice` that the engine itself does not need.

`equilibrium` builds f_eq_k = w_k * u * F_k from the engine's own
`velocity_factor`, in the order `collide` uses, so a test can compare the
kernel with it bit for bit.
"""

from fractions import Fraction

import numpy as np

from ade.lattice import W, velocity_factor

W_EXACT = (Fraction(4, 9),) + (Fraction(1, 9),) * 4 + (Fraction(1, 36),) * 4
CS2_EXACT = Fraction(1, 3)


def equilibrium(u, vx, vy):
    """Second-order equilibrium populations, shape (9,) + u.shape.

    Summing over k returns u exactly in real arithmetic; in floats it
    stays within a few ulps of u.
    """
    u = np.asarray(u, dtype=np.float64)
    factor = velocity_factor(vx, vy)
    out = np.empty((9,) + np.broadcast(u, factor[0]).shape, dtype=np.float64)
    for k in range(9):
        np.multiply(W[k], u, out=out[k])
        out[k] *= factor[k]
    return out
