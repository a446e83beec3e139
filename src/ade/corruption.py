"""Forward corruption chains and training-pair construction.

A chain runs the lattice solver through a DiffusionSchedule and stores the
K + 1 macroscopic snapshots (clean field first, fully corrupted prior
last), or hands each to a sink as it is formed, so a chain can be written
to disk holding one snapshot. The channels of an image step as one lattice
state: they evolve independently but share the velocity field, generated
once per step. On two or more CPUs, a large image's lattice is stepped
by the calling process and a forked partner process (`_Partner`), half
of its rows each, through the same `solver_step`, meeting at a polled
barrier after every step; the partner is told only when to step, and
takes the velocity field from the step number. The bits are those of one
process, and a partner that dies costs time, not bytes.
A dataset's images do not depend on each other (image i has the seed
(seed, i)), so `precompute_dataset` runs them with `procs._fork_map`, in
the calling process and up to one forked child per further CPU, each
holding one lattice state, and publishes the chains in name order: the
files, the report and what a failure leaves do not depend on the process
count. Every fork, and every rule on when to fork, is in `procs`; this
module keeps the chains and what each side of the partner computes.
Training noise is never folded back into the chain; it is added on the fly
when a pair is requested.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EngineError, ShapeMismatchError, ValidationError
from .lattice import (VelocityField, _aligned, apply_bounce_back, collide,
                      fill_rest, init_from_image, solver_step)
from .rng import CounterRng, derive_seed
from .schedule import DiffusionSchedule
from .turbulence import TurbulenceGenerator, TurbulenceSpec
from . import io, procs

SIGMA_TRAIN_DEFAULT = 0.01
TRAIN_SAMPLE_RATIO = 1.25

# C H W from which a chain steps half of its lattice's rows in a forked
# partner process: the smallest size at which the partner won at Pe 0 and
# at Pe 0.1 in every run of bench/layers.py on two CPUs. Below it (1 x
# 128^2 went either way, 3 x 64^2 lost) the fork, the shared pages and the
# numpy calls, which both halves pay whole, cost what half the work saves
_PARTNER_MIN_NODES = 3 * 96 * 96

# lattice steps a partner is kept, whatever it costs, before `_Partner`
# compares the time spent waiting for it with the time it saves
_PARTNER_TRIAL_STEPS = 8


@dataclass(frozen=True)
class NoiseParams:
    """Gaussian noise scales: sigma_train for pairs, sigma_sample for the
    reverse walk (defaults to sigma_train / 1.25)."""

    sigma_train: float = SIGMA_TRAIN_DEFAULT
    sigma_sample: float | None = None

    def __post_init__(self):
        if self.sigma_train < 0.0:
            raise ValidationError(
                f"sigma_train must be >= 0, got {self.sigma_train}")
        if self.sigma_sample is None:
            object.__setattr__(self, "sigma_sample",
                               self.sigma_train / TRAIN_SAMPLE_RATIO)
        if self.sigma_sample < 0.0:
            raise ValidationError(
                f"sigma_sample must be >= 0, got {self.sigma_sample}")


@dataclass
class CorruptionChain:
    """Snapshots [K+1, C, H, W], clean field first, prior last: an array,
    or a reader from `io.open_tensor` that reads entry k on `[k]`."""

    snapshots: np.ndarray | io.TensorReader

    @property
    def chain_length(self) -> int:
        return self.snapshots.shape[0] - 1

    @property
    def clean(self) -> np.ndarray:
        return self.snapshots[0]

    @property
    def prior(self) -> np.ndarray:
        return self.snapshots[-1]


def forward_chain(u0: np.ndarray, schedule: DiffusionSchedule, seed: int,
                  turbulence: TurbulenceSpec | None = None,
                  dtype=np.float64,
                  sink: Callable[[np.ndarray], object] | None = None,
                  ) -> CorruptionChain | None:
    """Run the schedule on u0 and collect every snapshot.

    Snapshot 0 is u0 cast to `dtype`: u0 itself, bit for bit, at float64,
    and u0 rounded to float32 at float32. With Pe > 0 the grid must be
    square (the spectral generator is N x N); `turbulence` defaults to the
    grid-sized spec with the schedule's velocity cap.

    With a `sink`, snapshots 0..K are handed to it in order, a zero-step
    level repeating the one before, and none is kept: the walk returns
    None. Every snapshot is the same [C, H, W] array of `dtype`, which the
    walk overwrites once the sink returns, so a sink that keeps one must
    copy it. Without a sink, they are copied into the [K+1, C, H, W]
    snapshots of the returned chain.

    A lattice of at least `_PARTNER_MIN_NODES` nodes is stepped half here
    and half by a forked `_Partner` where `procs._fork_width` allows two
    processes; the snapshots are the same bits, and the partner is reaped
    before this returns or raises.
    """
    u0 = np.asarray(u0)
    if u0.ndim == 2:
        u0 = u0[None]
    # the per-step arrays first: their build peak comes before the lattice's
    taus, rms, boundaries = schedule.per_step()
    split = (len(taus) > 0 and u0.size >= _PARTNER_MIN_NODES
             and u0.shape[-2] >= 4 and procs._fork_width(2) == 2)
    # checks shape and values; a partner sets the rows it steps
    state = init_from_image(u0, dtype=dtype, parts=2 if split else 1,
                            fill=not split)
    height, width = state.shape
    k_chain = schedule.chain_length
    # the field each step fetches, here and (`fetch`) in a partner
    provider = fetch = lambda step: None  # noqa: E731  no flow
    if schedule.peclet > 0.0 and schedule.lattice_steps > 0:
        if height != width:
            raise ValidationError(
                f"Pe > 0 needs a square grid, got {height}x{width}")
        if turbulence is None:
            turbulence = TurbulenceSpec(size=height, cap=schedule.cap)
        elif turbulence.size != height:
            raise ShapeMismatchError(
                f"turbulence size {turbulence.size} != grid {height}")
        gen, last = TurbulenceGenerator(turbulence, seed), len(taus) - 1
        # no step collides with the field fetched at the last one
        provider = lambda step: (  # noqa: E731
            None if step == last else gen.generate(step, float(rms[step])))
        if split:
            provider, fetch = _shared_flows(provider, state.shape)

    chain = None
    if sink is None:
        snaps = np.empty((k_chain + 1,) + u0.shape, dtype=state.dtype)
        chain = CorruptionChain(snaps)
        rows = iter(snaps)
        sink = lambda snap: np.copyto(next(rows), snap)  # noqa: E731
    # each snapshot is the state's macroscopic field, which every step
    # writes. A zero-step level repeats the snapshot before it: at the
    # start that is u0 itself, which the sum over f only approximates
    with (_Partner(state, u0, taus, fetch) if split
          else contextlib.nullcontext()) as partner:
        step = functools.partial(solver_step, state)
        if partner is not None:
            partner.start()
            step = partner.step
        snap = state.u
        snap[...] = u0
        sink(snap)
        for k in range(1, k_chain + 1):
            for g in range(boundaries[k - 1], boundaries[k]):
                step(provider, float(taus[g]), g)
            sink(snap)
    return chain


def _shared_flows(provider: Callable, shape: tuple[int, int]):
    """(`provider` copying each field into shared memory, the partner's
    provider): the field fetched at step g goes to slot g % 2, which the
    partner's provider returns at step g, so the steps of g read the field
    of slot (g - 1) % 2 or None in both processes."""
    slots = tuple(VelocityField(*slot) for slot in
                  _aligned((2, 2) + shape, np.float64, shared=True))

    def shared(step: int) -> VelocityField | None:
        vel = provider(step)
        if vel is None:
            return None
        for to, frm in zip(slots[step % 2], vel):
            np.copyto(to, frm)
        return slots[step % 2]
    return shared, lambda step: slots[step % 2]


class _Partner(procs._Child):
    """A forked process that steps part 1 of a two-part `state` while this
    process steps part 0, one step at a time.

    On `start` each process sets its own part's rows to the rest
    equilibrium of u0, and the partner sends a byte once its rows are set.
    `step` sends the partner a byte, which says only "go", steps part 0
    here, fetching the next field, and waits for the partner's byte: a
    barrier, as the next step pulls from the rows of both parts. The
    partner steps part 1 with `solver_step` too, fetching with `fetch`,
    which reads the step's field from the slot this process's provider
    copied it to (see `_shared_flows`), or returns None without a flow.
    Between steps the partner waits for its byte, so the caller may read
    `u` whole. A partner that is gone, at any
    point, or was never forked, has its rows set, and those of that step
    and of every later one stepped, here, from u0 or from `f`, which no
    step writes: it costs time, not bytes. So does one that is let go:
    after `_PARTNER_TRIAL_STEPS` steps, once this process has waited at
    the barriers longer than its own steps took, which is longer than the
    partner's work would take it, as when either process shares its CPU.
    """

    placed = True

    def __init__(self, state, u0: np.ndarray, taus: np.ndarray,
                 fetch: Callable):
        # the partner's steps hold the state, not this object: a cycle
        # through it would keep the shared buffers mapped until a collection
        super().__init__(functools.partial(_serve, state, u0, taus, fetch))
        self.state, self.u0 = state, u0
        self.worked = self.waited = 0.0  # seconds, in steps and barriers

    def start(self) -> None:
        if self.pid is not None:
            os.set_blocking(self.recv, False)
        fill_rest(self.state, self.u0, 0)
        self._sync(lambda: fill_rest(self.state, self.u0, 1))

    def step(self, provider: Callable, tau: float, g: int) -> None:
        """Lattice step g of both parts, part 0 and the fetch here."""
        state = self.state
        vel = state.vel
        # a partner gone already is seen at the barrier below
        if self.pid is not None:
            with contextlib.suppress(BrokenPipeError):
                os.write(self.send, b"\0")
        start = time.perf_counter()
        solver_step(state, provider, tau, g)
        own = time.perf_counter()
        self._sync(lambda: (collide(state, vel, tau, 1),
                            apply_bounce_back(state, 1)))
        self.worked += own - start
        self.waited += time.perf_counter() - own
        if g >= _PARTNER_TRIAL_STEPS and self.waited > self.worked:
            self.close()

    def _sync(self, owed: Callable) -> None:
        """Wait for the partner's byte; if it is gone, do `owed`, its work
        since the last byte, here."""
        if self.pid is None or not procs._await(self.recv):
            self.close()
            owed()


def _serve(state, u0: np.ndarray, taus: np.ndarray, fetch: Callable,
           go: int, done: int) -> None:
    """The partner's side of `_Partner`: part 1's rows, then its steps."""
    fill_rest(state, u0, 1)
    os.write(done, b"\0")
    os.set_blocking(go, False)
    for g, tau in enumerate(taus):
        if not procs._await(go):
            return
        solver_step(state, fetch, float(tau), g, 1)
        os.write(done, b"\0")


def add_training_noise(u: np.ndarray, sigma: float,
                       rng: CounterRng) -> np.ndarray:
    """u + sigma * z with z drawn from rng.

    The draw happens even for sigma = 0 (the result is then exactly u), so
    stream positions stay aligned across sigma settings.
    """
    if sigma < 0.0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    u = np.asarray(u)
    return u + sigma * rng.normal_field(u.shape)


def make_training_pair(chain: CorruptionChain, k: int, noise: NoiseParams,
                       rng: CounterRng) -> tuple[np.ndarray, np.ndarray]:
    """Noised input and regression target for chain position k in [1, K].

    Returns (u_hat, delta) with u_hat = snapshot_k + sigma_train * z and
    delta = snapshot_{k-1} - u_hat, the correction a predictor should
    output so that u_hat + delta recovers the less-corrupted snapshot.
    """
    if not 1 <= k <= chain.chain_length:
        raise IndexError(
            f"k must be in [1, {chain.chain_length}], got {k}")
    u_hat = add_training_noise(chain.snapshots[k], noise.sigma_train, rng)
    return u_hat, chain.snapshots[k - 1] - u_hat


def regression_loss(delta_pred: np.ndarray,
                    delta_target: np.ndarray) -> float:
    """Sum of squared residuals between prediction and target."""
    delta_pred = np.asarray(delta_pred)
    delta_target = np.asarray(delta_target)
    if delta_pred.shape != delta_target.shape:
        raise ShapeMismatchError(
            f"shape {delta_pred.shape} != {delta_target.shape}")
    diff = (delta_pred - delta_target).ravel()
    # np.sum, not BLAS dot: result must not depend on thread count
    return float(np.sum(diff * diff))


def _chain_image(job: tuple[int, str], input_dir: Path, stage: Path,
                 ref_shape: tuple[int, ...], schedule: DiffusionSchedule,
                 seed: int, turbulence: TurbulenceSpec | None,
                 dtype) -> tuple[str, str | None, str]:
    """Chain image `job = (index, name)` into the file `stage/<name>`.

    Returns (name, chain file name, sha256 of the staged file as its
    writer hashed it), or (name, None, message) for an image that is
    unreadable or not of ref_shape.
    """
    index, name = job
    try:
        stack, _ = io.read_image(input_dir / name)
    except (EngineError, OSError) as exc:  # per-file, batch continues
        return name, None, str(exc)
    if stack.shape != ref_shape:
        return name, None, f"shape {stack.shape} does not match {ref_shape}"
    staged = stage / name
    with io.tensor_writer(staged, (schedule.chain_length + 1,) + ref_shape,
                          dtype) as chain:
        forward_chain(stack, schedule, derive_seed(seed, index), turbulence,
                      dtype, sink=chain.append)
    return name, Path(name).stem + "_chain.adet", chain.hexdigest()


def precompute_dataset(input_dir: str | Path, out_dir: str | Path,
                       schedule: DiffusionSchedule | Callable[
                           [tuple], DiffusionSchedule],
                       seed: int,
                       turbulence: TurbulenceSpec | None | Callable[
                           [tuple], TurbulenceSpec | None] = None,
                       dtype=np.float64) -> dict:
    """Corrupt every PGM/PPM image in input_dir into per-image chain files.

    Image i (sorted by name) uses the derived seed (seed, i), so any subset
    can be regenerated independently. The first readable image fixes the
    expected [C, H, W]; unreadable or mismatched files, and a file whose
    `<stem>_chain.adet` an earlier name already wrote, are recorded as
    errors and the batch continues. `schedule` and `turbulence` may each be
    given as a function of that [C, H, W] shape, for recipes that depend
    on the image size. Returns a report dict with `written` (chain file
    name -> sha256) and `errors` (image name -> message), both in name
    order.

    The images run in this process and up to one forked child per further
    CPU of its affinity mask, each holding one lattice state and streaming
    one chain at a time to a staging dir inside out_dir. The chains are
    published in name order, so the files, the report and the state an
    error leaves are those of a walk in one process: a failure at image i
    leaves the chains before i written and no later one. A child that
    dies costs time, not bytes, and no child outlives the call.
    """
    input_dir = Path(input_dir)
    out_dir = Path(out_dir)
    names = sorted(p.name for p in input_dir.iterdir()
                   if p.suffix.lower() in (".pgm", ".ppm"))
    if not names:
        raise ValidationError(f"no .pgm/.ppm images in {input_dir}")

    errors: dict[str, str] = {}
    for first, name in enumerate(names):
        try:
            ref_shape = io.read_image(input_dir / name)[0].shape
            break
        except (EngineError, OSError) as exc:  # per-file, batch continues
            errors[name] = str(exc)
    else:
        raise ValidationError(f"no readable images in {input_dir}")
    if callable(schedule):
        schedule = schedule(ref_shape)
    if callable(turbulence):
        turbulence = turbulence(ref_shape)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = list(enumerate(names))[first:]
    written: dict[str, str] = {}
    owners: dict[str, str] = {}  # chain file name -> the image it came from
    stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=out_dir))
    try:
        run = functools.partial(
            _chain_image, input_dir=input_dir, stage=stage,
            ref_shape=ref_shape, schedule=schedule, seed=seed,
            turbulence=turbulence, dtype=dtype)
        for name, out_name, outcome in procs._fork_map(run, jobs, stage):
            if out_name is None:
                errors[name] = outcome
            elif out_name in owners:
                errors[name] = (f"chain name {out_name} already taken "
                                f"by {owners[out_name]}")
            else:
                os.replace(stage / name, out_dir / out_name)
                owners[out_name] = name
                written[out_name] = outcome
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return {"written": written, "errors": errors}
