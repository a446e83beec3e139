"""Reference forward chain for bitwise checks of the level walk.

A frozen copy of the per-step cursor loop: one pass over the global
lattice steps, with a cursor over the snapshot boundaries that fills every
level ending at the current step, zero-step levels included. Pe = 0 chains
fetch a private zero `VelocityField` built here, so its velocity factor is
built once. It steps through `ade.lattice` (pinned on its own by
`lattice_reference`), so a chain that matches it byte for byte keeps the
walk, the snapshot order and the velocity fields of the engine.
"""

import numpy as np

from ade.lattice import VelocityField, init_from_image, solver_step
from ade.turbulence import TurbulenceGenerator, TurbulenceSpec


def forward_chain(u0, schedule, seed, dtype=np.float64):
    """Snapshots [K + 1, C, H, W] of u0 ([C, H, W]) along `schedule`."""
    state = init_from_image(u0, dtype=dtype)
    height, width = state.shape
    taus, rms, boundaries = schedule.per_step()
    total = schedule.lattice_steps
    k_chain = schedule.chain_length

    if schedule.peclet > 0.0 and total > 0:
        gen = TurbulenceGenerator(
            TurbulenceSpec(size=height, cap=schedule.cap), seed)
        provider = lambda step: gen.generate(  # noqa: E731
            step, float(rms[step]))
    else:
        zero = np.zeros((height, width))
        still = VelocityField(zero, zero)
        provider = lambda step: still  # noqa: E731

    snaps = np.empty((k_chain + 1,) + u0.shape, dtype=np.dtype(dtype))
    snaps[0] = u0

    b = 1
    while b <= k_chain and boundaries[b] == 0:
        snaps[b] = snaps[0]
        b += 1
    for g in range(total):
        solver_step(state, provider, float(taus[g]), g)
        if b <= k_chain and boundaries[b] == g + 1:
            current = state.u.copy()
            while b <= k_chain and boundaries[b] == g + 1:
                snaps[b] = current
                b += 1
    assert b == k_chain + 1
    return snaps
