"""Reverse-chain sampling.

The sampler walks k = K..1: perturb the current state with Gaussian noise,
ask a predictor for the correction toward snapshot k-1, apply it. With the
training convention delta = u_{k-1} - u_hat, a perfect predictor telescopes
the walk back to the clean field regardless of the noise. The noise comes
from any object with `normal_field(shape)`: a `CounterRng` for a plain
walk, a slerp of two seeds' draws for an interpolated one. The walk returns
only its result; each state, the prior first, goes to an optional sink, so
a caller keeps the trajectory by keeping what the sink receives, the way
`ade reverse --record` streams it to disk.
The noise is most of a walk's cost. A walk enters its noise source's
`ahead` scope, which a `CounterRng` and the slerp of two have: where the
process may use a second CPU and a draw is large, a one-thread pool per
rng computes the next step's noise while the current step predicts, adds
and hands its state on, and is joined before the walk returns or raises.
On one CPU, or for small fields, no thread starts. A counter-based draw has the same bits wherever its pairs
are computed, and the rng's position moves only with the draws the walk
takes, so the walk's bytes do not depend on the pool.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .corruption import CorruptionChain
from .errors import (
    FormatError,
    PredictorTimeoutError,
    ShapeMismatchError,
    ValidationError,
)
from .rng import CounterRng
from . import io


class Predictor(Protocol):
    """The correction toward snapshot k-1 of a noised state u_hat.

    The walk consumes each delta before it calls `predict` again, so a
    predictor may return the same buffer every call.
    """

    def predict(self, u_hat: np.ndarray, k: int) -> np.ndarray: ...


class OraclePredictor:
    """Reads the forward chain and returns the exact correction, in a
    float64 buffer it owns and overwrites on each call."""

    def __init__(self, chain: CorruptionChain):
        self.chain = chain
        self._delta: np.ndarray | None = None
        self._row: np.ndarray | None = None  # a snapshot read from a file

    def predict(self, u_hat: np.ndarray, k: int) -> np.ndarray:
        snaps = self.chain.snapshots
        shape = np.shape(u_hat)
        if self._delta is None or self._delta.shape != shape:
            self._delta = np.empty(shape)
        if isinstance(snaps, io.TensorReader):
            if snaps.dtype == self._delta.dtype:
                snap = snaps.read_into(k - 1, self._delta)
            else:
                if self._row is None:
                    self._row = np.empty(snaps.shape[1:], snaps.dtype)
                snap = snaps.read_into(k - 1, self._row)
        else:
            snap = snaps[k - 1]
        return np.subtract(snap, u_hat, out=self._delta)


class ZeroPredictor:
    """Predicts no correction; the walk stays at the noised prior."""

    def predict(self, u_hat: np.ndarray, k: int) -> np.ndarray:
        return np.zeros_like(u_hat)


class ExternPredictor:
    """Delegates each step to an external process via tensor files.

    For step k the sampler writes `step_<k>_input.adet` into `directory`
    and polls for `step_<k>_delta.adet`. The partner should write its
    answer atomically (temp file + rename); half-written answers are
    retried until `timeout` seconds elapse. A `step_<k>_delta.adet` left by
    an earlier run is removed before the input is written.
    """

    def __init__(self, directory: str | Path, timeout: float = 30.0,
                 poll_interval: float = 0.01):
        for name, value in (("timeout", timeout),
                            ("poll_interval", poll_interval)):
            if not value > 0.0:
                raise ValidationError(f"{name} must be > 0, got {value}")
        self.directory = Path(directory)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.directory.mkdir(parents=True, exist_ok=True)

    def predict(self, u_hat: np.ndarray, k: int) -> np.ndarray:
        answer = self.directory / f"step_{k}_delta.adet"
        answer.unlink(missing_ok=True)  # an earlier run's answer is stale
        io.write_tensor(self.directory / f"step_{k}_input.adet",
                        np.asarray(u_hat, dtype=np.float64))
        deadline = time.monotonic() + self.timeout
        while True:
            if answer.exists():
                try:
                    return io.read_tensor(answer)
                except (FormatError, OSError):
                    pass  # partner may still be writing
            if time.monotonic() >= deadline:
                raise PredictorTimeoutError(
                    f"no answer for step {k} within {self.timeout}s "
                    f"in {self.directory}")
            time.sleep(self.poll_interval)


def _checked_delta(delta: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != shape:
        raise ShapeMismatchError(
            f"predictor returned shape {delta.shape}, expected {shape}")
    return delta


def sample(prior: np.ndarray, predictor: Predictor, steps: int,
           sigma_sample: float, rng: CounterRng,
           sink: Callable[[np.ndarray], object] | None = None) -> np.ndarray:
    """Run the reverse walk from the prior down to k = 1.

    `rng` is any object whose `normal_field(shape)` returns a fresh float64
    array, such as a `CounterRng`; the walk scales it in place. One noise
    field is drawn per step even when sigma_sample is 0 (the perturbation
    is then exactly zero), keeping rng positions comparable across sigma
    settings. The walk holds one state at a time and hands each, the
    prior first, to `sink`, so a caller can stream the trajectory to
    disk. No state is written to after it is handed on, so a sink that
    keeps the states it receives holds the whole trajectory. Arithmetic is
    float64. With a noise source that has an `ahead(draws)` scope, a
    `CounterRng` or an interpolated walk's slerp of two, the walk runs in
    its `ahead(steps)` scope: on two or more CPUs a one-thread pool per rng
    computes each large noise field a step early, and is joined before
    this returns or raises. The draws, the states and the rng's position
    afterwards are the same bits either way.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if sigma_sample < 0.0:
        raise ValidationError(
            f"sigma_sample must be >= 0, got {sigma_sample}")
    u = np.asarray(prior, dtype=np.float64)
    sink = sink or (lambda state: None)
    sink(u)
    with (rng.ahead(steps) if hasattr(rng, "ahead")
          else contextlib.nullcontext()):
        for k in range(steps, 0, -1):
            # u_hat = u + sigma * z, then u = u_hat + delta, formed in the
            # fresh noise buffer: the same bits, since IEEE + and * commute
            u_hat = rng.normal_field(u.shape)
            u_hat *= sigma_sample
            u_hat += u
            u_hat += _checked_delta(predictor.predict(u_hat, k), u.shape)
            u = u_hat
            sink(u)
    return u


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Spherical interpolation between two same-shape fields.

    Falls back to linear blending when the angle between the flattened
    vectors is below 1e-7. t = 0 and t = 1 return a and b exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape {a.shape} != {b.shape}")
    af, bf = a.ravel(), b.ravel()
    # fixed-shape reductions keep the result thread-count independent
    na = np.sqrt(np.sum(af * af))
    nb = np.sqrt(np.sum(bf * bf))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("slerp endpoints must be nonzero")
    cos_omega = np.clip(np.sum(af * bf) / (na * nb), -1.0, 1.0)
    omega = np.arccos(cos_omega)
    if omega < 1e-7:
        return (1.0 - t) * a + t * b
    s = np.sin(omega)
    return (np.sin((1.0 - t) * omega) / s) * a + (np.sin(t * omega) / s) * b


def interpolate_priors(chain_a: CorruptionChain, chain_b: CorruptionChain,
                       lam: float) -> np.ndarray:
    """Linear blend of the two fully corrupted priors."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0, 1], got {lam}")
    pa, pb = chain_a.prior, chain_b.prior
    if pa.shape != pb.shape:
        raise ShapeMismatchError(f"shape {pa.shape} != {pb.shape}")
    return (1.0 - lam) * pa + lam * pb


class _SlerpNoise:
    """Noise for one interpolated walk: slerp(z_a, z_b, lam) of the draws
    z_a, z_b that seeds a and b make in plain walks of their own."""

    def __init__(self, seed_a: int, seed_b: int, lam: float):
        self.rngs = (CounterRng(seed_a, 0), CounterRng(seed_b, 0))
        self.lam = lam

    def normal_field(self, shape: tuple[int, ...]) -> np.ndarray:
        z_a, z_b = (rng.normal_field(shape) for rng in self.rngs)
        return slerp(z_a, z_b, self.lam)

    @contextlib.contextmanager
    def ahead(self, draws: int):
        """Both seeds' `CounterRng.ahead(draws)` scopes: one pool per seed
        for the whole walk, not one per draw."""
        with contextlib.ExitStack() as stack:
            for rng in self.rngs:
                stack.enter_context(rng.ahead(draws))
            yield


def interpolate_sample(chain_a: CorruptionChain, chain_b: CorruptionChain,
                       predictor: Predictor, lambdas, sigma_sample: float,
                       seed_a: int, seed_b: int) -> np.ndarray:
    """Reverse walks from blended priors with angle-blended noise.

    Each lambda is one `sample` walk from the linear blend of the priors,
    whose noise source perturbs every step with slerp(z_a, z_b, lambda),
    z_a and z_b being the draws the two seeds would make on their own.
    lambda = 0 and 1 reproduce the plain per-seed walks bit for bit.
    """
    if chain_a.chain_length != chain_b.chain_length:
        raise ValidationError(
            f"chain lengths differ: {chain_a.chain_length} != "
            f"{chain_b.chain_length}")
    walks = [sample(interpolate_priors(chain_a, chain_b, float(lam)),
                    predictor, chain_a.chain_length, sigma_sample,
                    _SlerpNoise(seed_a, seed_b, float(lam)))
             for lam in lambdas]
    if not walks:
        raise ValidationError("need at least one lambda")
    return np.stack(walks)
