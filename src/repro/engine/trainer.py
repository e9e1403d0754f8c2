"""The :class:`Trainer` — the one training driver behind every loop.

Every epoch loop in the repo (AimTS pre-training, downstream fine-tuning and
all self-supervised baseline pre-training) runs through this class: the loop
supplies batches and a loss (:class:`~repro.engine.loop.TrainLoop`), the
trainer supplies the epoch/step mechanics — optimizer stepping, gradient
accumulation, callback events, and resumable checkpoints through the same
bundle format estimators persist with (:mod:`repro.api.bundle`).

Bit-exact guarantees: with no accumulation/clipping callbacks the batch
schedule is ``zero_grad → batch_loss → backward → step`` per batch, and every
random draw of a step comes either from the loop's own streams (loops that
make their batches; checkpoints snapshot them) or from the step key
``(seed, epoch, step)`` (loops with a produce stage) — so a float64 curve is
reproducible to the last bit, and :meth:`Trainer.resume` continues a killed
run as if it had never stopped.
"""

from __future__ import annotations

import numpy as np

from repro.engine.callbacks import (
    Callback,
    GradAccumulation,
    LossHistory,
    LRSchedulerCallback,
)
from repro.engine.history import History
from repro.engine.loop import TrainLoop
from repro.engine.profiler import PhaseProfiler, profiled_phase, use_profiler
from repro.engine.state import DtypePolicy, TrainState, get_rng_state, set_rng_state
from repro.nn.arena import StepArena, use_arena
from repro.nn.optim import Optimizer
from repro.nn.schedulers import LRScheduler
from repro.nn.tensor import Tensor, default_dtype

#: manifest ``estimator`` tag marking a trainer checkpoint bundle
CHECKPOINT_TAG = "trainer-checkpoint"

#: manifest ``kind`` tag for trainer checkpoints
CHECKPOINT_KIND = "train-state"


class Trainer:
    """Drives a :class:`~repro.engine.loop.TrainLoop` for a number of epochs.

    Parameters
    ----------
    loop:
        The objective: batches, loss, modules and RNG streams.
    optimizer:
        Optimizer over ``loop.parameters()`` (already constructed, so the
        caller controls parameter ordering).
    scheduler:
        Optional LR schedule; stepped once per epoch via an auto-appended
        :class:`~repro.engine.callbacks.LRSchedulerCallback` unless one is
        already in ``callbacks``.
    callbacks:
        Event subscribers, run in order.  A
        :class:`~repro.engine.callbacks.LossHistory` is inserted at the front
        when none is supplied.
    history:
        Existing :class:`~repro.engine.history.History` for the auto-inserted
        ``LossHistory`` to append into — pass the same instance across
        several ``fit`` calls to accumulate one continuous history.
        Mutually exclusive with supplying your own ``LossHistory`` callback.
    dtype_policy:
        The precision policy (see :class:`~repro.engine.state.DtypePolicy`),
        configured once here instead of per loop.
    n_workers:
        Sharded data-parallel training: with ``n_workers >= 2`` every batch
        (made, or produced on the parent) is split by ``loop.shard_batch``
        across a persistent
        :class:`~repro.engine.parallel.GradientWorkerPool` (the loop must
        provide a ``worker_factory``), whose workers only compute the loss;
        gradients are reduced in fixed worker order before each optimizer
        step.  ``n_workers=1`` (default) is the sequential path.
    worker_pool:
        An already-running :class:`~repro.engine.parallel.GradientWorkerPool`
        to borrow instead of spawning one per ``fit`` — estimators keep one
        alive across fits so worker startup is paid once.  The caller owns
        (and closes) a borrowed pool; a trainer-spawned one is closed when
        ``fit`` returns.
    n_producers:
        Where the loop's produce stage runs (loops without one reject
        ``n_producers >= 1``): ``0`` (default) produces inline on the parent,
        ``n_producers >= 1`` in producer processes ahead of the gradient step
        through a bounded shared-memory ring (see
        :class:`~repro.engine.parallel.ProducerPool`).  Per-batch streams are
        keyed by ``derive_step_seed(seed, epoch, step)``, so the loss curve
        is bit-identical at any producer count — including a count changed
        between epochs (``trainer.n_producers = k`` from a callback) or
        across a resume.  Mutually exclusive with ``n_workers >= 2``.
    prefetch_depth:
        Ring slots, i.e. the produce-ahead bound (>= 2, double-buffered
        minimum).
    producer_pool:
        An already-running :class:`~repro.engine.parallel.ProducerPool` to
        borrow instead of spawning one per ``fit`` (estimators keep one alive
        across fits).  The caller owns and closes it.
    restart_policy:
        Optional :class:`~repro.engine.parallel.RestartPolicy` passed to
        trainer-spawned pools: crashed producers/workers are respawned and
        their steps replayed bit-identically (step-keyed streams).  When the
        restart budget runs out, a pipelined fit *degrades* to producing
        inline on the parent with a ``RuntimeWarning`` (recorded in
        ``degradation_events``) instead of raising — the curve is unchanged,
        only the prefetch is lost.  ``None`` keeps fail-fast semantics.
    step_arena:
        Pools every steady-state training allocation in a
        :class:`~repro.nn.arena.StepArena` (default ``True``): forward
        intermediates, im2col patch matrices, gradient buffers and VJP
        scratch all reuse plan-once buffers, keyed per step by a generation
        counter that the trainer advances after every batch.  Bit-identical
        to the allocate-fresh path (the arena only changes *where* arrays
        live, never their values).  Pass ``None``/``False`` for the
        allocate-fresh escape hatch, or a ready ``StepArena`` to share one.
        Sharded workers build a private arena per replica (see
        :class:`~repro.engine.parallel.GradientWorkerPool`).
    profile:
        Time the phases of every training step (``fetch`` / ``forward`` /
        ``backward`` / ``optimizer``, plus loop-reported phases such as
        ``render`` and ``augment``) with exclusive accounting and record the
        per-epoch seconds as ``profile_<phase>_seconds`` history columns;
        totals also appear in :meth:`pipeline_summary`.  Off by default —
        the instrumented sites cost one ``None`` check when disabled.
    """

    def __init__(
        self,
        loop: TrainLoop,
        optimizer: Optimizer,
        *,
        scheduler: LRScheduler | None = None,
        callbacks: list[Callback] | tuple = (),
        history: History | None = None,
        dtype_policy: DtypePolicy | None = None,
        state: TrainState | None = None,
        n_workers: int = 1,
        worker_pool=None,
        n_producers: int = 0,
        prefetch_depth: int = 2,
        producer_pool=None,
        restart_policy=None,
        step_arena: StepArena | bool | None = True,
        profile: bool = False,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if n_producers < 0:
            raise ValueError(f"n_producers must be >= 0, got {n_producers}")
        if prefetch_depth < 2:
            raise ValueError(
                f"prefetch_depth must be >= 2 (double-buffered), got {prefetch_depth}"
            )
        if producer_pool is not None:
            n_producers = producer_pool.n_producers
            prefetch_depth = producer_pool.prefetch_depth
        if n_producers >= 1 and (n_workers > 1 or worker_pool is not None):
            raise ValueError(
                "pipelined producers (n_producers >= 1) require the sequential "
                "gradient path (n_workers=1); combine one or the other"
            )
        self.loop = loop
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.n_workers = int(n_workers if worker_pool is None else worker_pool.n_workers)
        self.worker_pool = worker_pool
        self.n_producers = int(n_producers)
        self.prefetch_depth = int(prefetch_depth)
        self.producer_pool = producer_pool
        #: per-epoch pipeline counters of the most recent fit (pipelined runs
        #: only): produce/stall seconds, occupancy, steps — see
        #: :meth:`pipeline_summary`
        self.pipeline_stats: list[dict] = []
        self._inline_producer = None
        self.restart_policy = restart_policy
        #: one record per producer-pool degradation (epoch, restarts, error)
        self.degradation_events: list[dict] = []
        self._degraded = False
        if step_arena is True:
            step_arena = StepArena()
        elif step_arena is False:
            step_arena = None
        #: the training-step buffer pool (None = allocate-fresh reference)
        self.step_arena: StepArena | None = step_arena
        #: per-phase wall-time accounting (None unless ``profile=True``)
        self.profiler: PhaseProfiler | None = PhaseProfiler() if profile else None
        self.callbacks: list[Callback] = list(callbacks)
        self.dtype_policy = dtype_policy or DtypePolicy()
        self.state = state or TrainState()
        self._loss_history = next(
            (cb for cb in self.callbacks if isinstance(cb, LossHistory)), None
        )
        if self._loss_history is None:
            self._loss_history = LossHistory(
                history if history is not None else self.state.history
            )
            self.callbacks.insert(0, self._loss_history)
        elif history is not None and self._loss_history.history is not history:
            raise ValueError(
                "pass either history= or a LossHistory callback, not both"
            )
        self.state.history = self._loss_history.history
        if scheduler is not None and not any(
            isinstance(cb, LRSchedulerCallback) for cb in self.callbacks
        ):
            # insert right after the LossHistory so the schedule steps before
            # user callbacks run — a Checkpointer then snapshots the post-step
            # learning rate the next epoch resumes with
            position = self.callbacks.index(self._loss_history) + 1
            self.callbacks.insert(position, LRSchedulerCallback(scheduler))
        #: total epoch target of the active ``fit`` call (for progress display)
        self.target_epochs: int = 0

    # ------------------------------------------------------------------ events
    @property
    def history(self) -> History:
        """The structured per-epoch metric history."""
        return self._loss_history.history

    def _emit(self, event: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, event)(self, *args)

    @staticmethod
    def _normalize_losses(result) -> dict:
        if isinstance(result, Tensor):
            return {"loss": result}
        if isinstance(result, dict):
            if "loss" not in result:
                raise KeyError(
                    "batch_loss returned a dict without the required 'loss' entry"
                )
            return result
        raise TypeError(
            f"batch_loss must return a Tensor or a dict with a 'loss' entry, "
            f"got {type(result).__name__}"
        )

    # --------------------------------------------------------------------- fit
    def _finish_step(self, accumulation: int, window: int) -> None:
        """Average the window's gradients, clip (callbacks) and step."""
        if accumulation > 1:
            # unscaled micro-batch gradients were summed; averaging over the
            # *actual* window size keeps partial end-of-epoch windows
            # equivalent to one full batch over the same samples
            for param in self.optimizer.parameters:
                if param.grad is not None:
                    param.grad /= window
        self._emit("on_backward_end")
        with profiled_phase("optimizer"):
            self.optimizer.step()
        self.state.step += 1

    def fit(self, epochs: int) -> History:
        """Train until ``epochs`` total epochs are complete.

        ``epochs`` is the *total* target: a trainer restored at epoch ``k``
        (via :meth:`resume`) runs only the remaining ``epochs - k``.
        Returns the structured history.

        Stopping: a callback setting ``state.stop_training`` from
        ``on_epoch_end`` ends the run after that epoch; setting it from
        ``on_batch_end`` aborts the epoch immediately — pending accumulated
        gradients are discarded and the partial epoch is *not* recorded in
        the history (so a ``Checkpointer`` never snapshots it).

        The whole run executes under the trainer's
        :class:`~repro.engine.state.DtypePolicy` compute dtype, so every
        tensor the loop creates (inputs, masks, losses) and every gradient
        follows the configured precision.
        """
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        with (
            default_dtype(self.dtype_policy.np_compute_dtype),
            use_arena(self.step_arena),
            use_profiler(self.profiler),
        ):
            return self._fit(int(epochs))

    def _make_worker_pool(self):
        """Spin up the gradient worker pool for ``n_workers >= 2`` runs."""
        from repro.engine.parallel import GradientWorkerPool

        factory = self.loop.worker_factory()
        if factory is None:
            raise ValueError(
                f"{type(self.loop).__name__} does not support sharded training "
                "(worker_factory() returned None); use n_workers=1"
            )
        return GradientWorkerPool(
            factory,
            list(self.loop.parameters()),
            n_workers=self.n_workers,
            compute_dtype=self.dtype_policy.compute_dtype,
            restart_policy=self.restart_policy,
            step_arena=self.step_arena is not None,
        )

    def _fit(self, epochs: int) -> History:
        import functools

        from repro.engine.parallel import ProducerPool

        factory = self.loop.producer_factory()
        if factory is None and self.n_producers >= 1:
            raise ValueError(
                f"{type(self.loop).__name__} does not support pipelined training "
                "(producer_factory() returned None); use n_producers=0"
            )
        own_producers = None
        producers = self.producer_pool
        if factory is not None and self.n_producers >= 1 and producers is None:
            producers = own_producers = ProducerPool(
                factory,
                n_producers=self.n_producers,
                prefetch_depth=self.prefetch_depth,
                compute_dtype=self.dtype_policy.compute_dtype,
                restart_policy=self.restart_policy,
            )
        batches_for = (
            self.loop.make_batches
            if factory is None
            else functools.partial(self._produced_batches, producers=producers)
        )
        try:
            if self.worker_pool is not None:  # borrowed: the owner closes it
                return self._fit_epochs(int(epochs), self.worker_pool, batches_for)
            pool = self._make_worker_pool() if self.n_workers > 1 else None
            try:
                return self._fit_epochs(int(epochs), pool, batches_for)
            finally:
                if pool is not None:
                    pool.close()
        finally:
            if own_producers is not None:
                own_producers.close()

    def _inline_epoch_batches(self, epoch: int, payloads, *, start_step: int = 0):
        """Produce ``payloads`` synchronously on the parent, step-keyed.

        The ``n_producers=0`` path *and* the degradation target when a
        producer pool exhausts its restart budget — the step keying makes
        both bit-identical to producing in processes.
        """
        import time as time_module

        if self._inline_producer is None:
            self._inline_producer = self.loop.producer_factory()(0)
        stats = {"steps": 0, "produce_seconds": 0.0, "stall_seconds": 0.0,
                 "oversize_arrays": 0, "restarts": 0, "replayed_steps": 0,
                 "n_producers": 0.0, "prefetch_depth": 0.0}
        wall_start = time_module.perf_counter()
        try:
            for offset, payload in enumerate(payloads):
                start = time_module.perf_counter()
                produced = self._inline_producer.produce(epoch, start_step + offset, payload)
                stats["produce_seconds"] += time_module.perf_counter() - start
                stats["steps"] += 1
                yield produced
        finally:
            wall = time_module.perf_counter() - wall_start
            stats["wall_seconds"] = wall
            stats["occupancy"] = stats["produce_seconds"] / wall if wall > 0 else 0.0
            self.pipeline_stats.append({"epoch": epoch, **stats})

    def _degrade(self, epoch: int, producers, error) -> None:
        """Record a producer-pool failure and switch this fit to inline mode."""
        import warnings

        restarts = int(getattr(producers, "restart_count", 0))
        self._degraded = True
        self.degradation_events.append(
            {"epoch": int(epoch), "restarts": restarts, "error": str(error)}
        )
        warnings.warn(
            f"batch producers unrecoverable after {restarts} restart(s); "
            "continuing on the inline sequential path — the loss curve is "
            "unchanged (step-keyed streams), only the prefetch overlap is lost",
            RuntimeWarning,
            stacklevel=2,
        )

    def _produced_batches(self, epoch: int, producers):
        """Produced batches of one epoch, in schedule order."""
        from repro.engine.parallel import WorkerError

        payloads = self.loop.pipeline_batches(epoch)
        if producers is None or self._degraded:
            yield from self._inline_epoch_batches(epoch, payloads)
            return
        if producers.n_producers != self.n_producers:
            # elastic producers: a callback moved the knob between epochs
            producers.resize(self.n_producers)
        consumed = 0
        failure = None
        try:
            try:
                for batch in producers.stream(
                    epoch, payloads, slot_nbytes=self.loop.pipeline_slot_nbytes()
                ):
                    yield batch
                    consumed += 1
            finally:
                if producers.last_stream_stats is not None:
                    self.pipeline_stats.append(
                        {"epoch": epoch, **producers.last_stream_stats}
                    )
        except WorkerError as error:
            failure = error
        if failure is None:
            return
        # restart budget exhausted mid-epoch: the schedule is stateless, so
        # regenerate it, skip the consumed prefix and continue inline — the
        # remaining steps land bit-identically under their (epoch, step) keys
        import itertools

        self._degrade(epoch, producers, failure)
        remaining = itertools.islice(iter(self.loop.pipeline_batches(epoch)), consumed, None)
        yield from self._inline_epoch_batches(epoch, remaining, start_step=consumed)

    def pipeline_summary(self) -> dict[str, float]:
        """Aggregate produce/stall/occupancy stats over the recorded epochs.

        When the trainer was built with ``profile=True`` the cumulative
        per-phase seconds are appended as ``profile_<phase>_seconds`` keys.
        """
        summary: dict[str, float] = {}
        if self.pipeline_stats:
            produce = sum(entry["produce_seconds"] for entry in self.pipeline_stats)
            stall = sum(entry["stall_seconds"] for entry in self.pipeline_stats)
            wall = sum(entry["wall_seconds"] for entry in self.pipeline_stats)
            occupancies = [entry["occupancy"] for entry in self.pipeline_stats]
            summary = {
                "produce_seconds": produce,
                "consumer_stall_seconds": stall,
                "wall_seconds": wall,
                "producer_occupancy": sum(occupancies) / len(occupancies),
                "oversize_arrays": sum(
                    entry["oversize_arrays"] for entry in self.pipeline_stats
                ),
                "steps": sum(entry["steps"] for entry in self.pipeline_stats),
                "restarts": sum(entry.get("restarts", 0) for entry in self.pipeline_stats),
                "replayed_steps": sum(
                    entry.get("replayed_steps", 0) for entry in self.pipeline_stats
                ),
            }
        if self.profiler is not None:
            for phase, seconds in self.profiler.snapshot().items():
                summary[f"profile_{phase}_seconds"] = seconds
        return summary

    def arena_stats(self) -> dict[str, int]:
        """Hit/miss/bytes counters of the step arena ({} when disabled)."""
        if self.step_arena is None:
            return {}
        return self.step_arena.stats()

    def _fit_epochs(self, epochs: int, pool, batches_for) -> History:
        accumulation = next(
            (cb.steps for cb in self.callbacks if isinstance(cb, GradAccumulation)), 1
        )
        self.target_epochs = int(epochs)
        self.state.stop_training = False
        self.state.stop_reason = None
        if pool is not None:
            # BN running stats advance inside the workers only: start them
            # from the parent's (restored or reloaded) ones
            pool.push_module_buffers(self.loop.named_modules())
        self._emit("on_fit_start")
        for epoch in range(self.state.epoch, int(epochs)):
            self._emit("on_epoch_start", epoch)
            batches = batches_for(epoch)
            totals: dict[str, float] = {}
            n_batches = 0
            micro = 0
            aborted = False
            profile_start = (
                self.profiler.snapshot() if self.profiler is not None else None
            )
            batch_iter = iter(batches)
            while True:
                with profiled_phase("fetch"):
                    try:
                        batch = next(batch_iter)
                    except StopIteration:
                        break
                if micro == 0:
                    self.optimizer.zero_grad()
                if pool is not None:
                    with profiled_phase("workers"):
                        logs = pool.step(
                            self.loop.shard_batch(batch, pool.n_workers), accumulate=micro > 0
                        )
                else:
                    with profiled_phase("forward"):
                        losses = self._normalize_losses(self.loop.batch_loss(batch))
                    with profiled_phase("backward"):
                        losses["loss"].backward()
                    logs = {
                        key: float(value.item()) if isinstance(value, Tensor) else float(value)
                        for key, value in losses.items()
                    }
                micro += 1
                self.state.batch += 1
                if micro >= accumulation:
                    self._finish_step(accumulation, micro)
                    micro = 0
                for key, value in logs.items():
                    totals[key] = totals.get(key, 0.0) + value
                n_batches += 1
                self._emit("on_batch_end", logs)
                if self.step_arena is not None:
                    # roll the pool generation: every per-step buffer becomes
                    # reusable (parameter gradients live in private buffers
                    # and survive accumulation windows)
                    self.step_arena.advance()
                if self.state.stop_training:
                    aborted = True
                    break
            if pool is not None and n_batches:
                # BN running stats only advance inside the workers; merge the
                # first shard's before epoch-end callbacks (or, on a mid-epoch
                # abort, the caller) observe the modules
                pool.sync_module_buffers(self.loop.named_modules())
            if aborted:
                if hasattr(batches, "close"):
                    # close the batch generator now (not at GC) so in-flight
                    # ring slots drain before anything else runs
                    batches.close()
                break
            if micro > 0:  # leftover partial accumulation window still steps
                self._finish_step(accumulation, micro)
            epoch_logs = {
                key: value / max(n_batches, 1) for key, value in totals.items()
            }
            epoch_logs["learning_rate"] = self.optimizer.lr
            if self.profiler is not None:
                for phase, seconds in self.profiler.snapshot().items():
                    epoch_logs[f"profile_{phase}_seconds"] = seconds - profile_start.get(
                        phase, 0.0
                    )
            for name in self.loop.metric_names():
                # an epoch with zero usable batches still records every
                # declared metric (as 0.0), keeping the seed loops' fixed
                # curve shape
                epoch_logs.setdefault(name, 0.0)
            self.state.epoch = epoch + 1
            self._emit("on_epoch_end", epoch_logs)
            if self.state.stop_training:
                break
        self._emit("on_fit_end")
        return self.history

    # ------------------------------------------------------------- checkpoints
    def save_checkpoint(self, path) -> str:
        """Write a resumable checkpoint bundle; returns the path written.

        The bundle holds the loop's module weights (``model.*``), the
        optimizer's moment arrays (``optimizer.*``) and, in the manifest, the
        progress counters, the scheduler state, the history and a snapshot of
        every RNG stream the loop consumes — restoring all of them via
        :meth:`resume` continues the run bit-identically.
        """
        from repro.api.bundle import save_bundle

        arrays: dict[str, np.ndarray] = {}
        for name, module in self.loop.named_modules().items():
            for key, value in module.state_dict().items():
                arrays[f"model.{name}.{key}"] = value
        optimizer_meta: dict = {}
        for key, value in self.optimizer.state_dict().items():
            if isinstance(value, list):
                optimizer_meta[key] = {"__arrays__": len(value)}
                for index, array in enumerate(value):
                    arrays[f"optimizer.{key}.{index}"] = array
            else:
                optimizer_meta[key] = value
        manifest = {
            "estimator": CHECKPOINT_TAG,
            "kind": CHECKPOINT_KIND,
            "train_state": self.state.progress(),
            "history": self.history.metrics,
            "optimizer": optimizer_meta,
            "scheduler": None if self.scheduler is None else self.scheduler.state_dict(),
            "rngs": {
                name: get_rng_state(generator)
                for name, generator in self.loop.named_rngs().items()
            },
        }
        return save_bundle(path, arrays, manifest)

    def load_checkpoint(self, path) -> TrainState:
        """Restore trainer + loop state from a checkpoint written by
        :meth:`save_checkpoint` (without continuing training)."""
        from repro.api.bundle import BundleFormatError, load_bundle, sub_state

        arrays, manifest = load_bundle(path)
        if manifest.get("kind") != CHECKPOINT_KIND:
            raise BundleFormatError(
                f"{str(path)!r} is not a trainer checkpoint "
                f"(kind={manifest.get('kind')!r}); estimator bundles load via "
                "repro.api.load_estimator"
            )
        for name, module in self.loop.named_modules().items():
            module.load_state_dict(sub_state(arrays, f"model.{name}"))
        optimizer_state: dict = {}
        for key, value in manifest.get("optimizer", {}).items():
            if isinstance(value, dict) and "__arrays__" in value:
                optimizer_state[key] = [
                    arrays[f"optimizer.{key}.{index}"]
                    for index in range(int(value["__arrays__"]))
                ]
            else:
                optimizer_state[key] = value
        self.optimizer.load_state_dict(optimizer_state)
        scheduler_state = manifest.get("scheduler")
        if self.scheduler is not None and scheduler_state is not None:
            self.scheduler.load_state_dict(scheduler_state)
        rngs = self.loop.named_rngs()
        for name, stored in (manifest.get("rngs") or {}).items():
            if name in rngs:
                set_rng_state(rngs[name], stored)
        self.history.load(manifest.get("history") or {})
        self.state.restore_progress(manifest["train_state"])
        return self.state

    def resume(self, path, *, epochs: int | None = None) -> History:
        """Restore a checkpoint and, when ``epochs`` is given, continue to it.

        ``epochs`` is the total epoch target (as in :meth:`fit`); omit it to
        just restore state and call :meth:`fit` separately.  Optimizer
        moments, scheduler step and every per-epoch RNG stream come back
        exactly as saved, so the continued run is bit-identical to one that
        was never interrupted.
        """
        self.load_checkpoint(path)
        if epochs is not None:
            return self.fit(epochs)
        return self.history
