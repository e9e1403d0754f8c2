"""Sharded data-parallel gradient workers and pipelined batch producers.

A :class:`GradientWorkerPool` keeps ``n_workers`` **persistent** spawn-safe
``multiprocessing`` processes alive across the whole ``fit``.  Each worker
builds one replica of the training loop's modules (via the loop's picklable
``worker_factory``), and every optimizer step then runs as:

1. the parent packs the current parameters into a shared-memory buffer
   (one contiguous block per dtype — see :class:`repro.nn.flat.FlatLayout`);
2. the parent writes worker ``w``'s shard of the step's batch (produced on
   the parent) into slot ``w`` of a :class:`RingArena` (the same
   shared-memory ring the pipelined producers publish into); each worker
   copies its shard out of the slot, refreshes its replica's parameters
   from the shared buffer, computes ``batch_loss`` and backpropagates;
3. each worker packs its gradients into its own shared segment, and the
   parent reduces them in **fixed ascending worker order** with per-shard
   weights ``n_w / n_total`` before stepping the optimizer as usual.

Determinism contract
--------------------
* ``n_workers=1`` never reaches this module: the trainer runs the plain
  sequential path.
* Multi-worker runs are deterministic *at a fixed worker count*: shards are
  contiguous in-order splits, the gradient reduction order is fixed, and
  every random draw of a step happens on the parent before the batch is
  split — pre-training draws in its produce stage
  (:func:`derive_step_seed`) — while the workers only compute
  ``batch_loss``, which draws nothing at random.  A float64 run repeated —
  or resumed — with the same ``n_workers`` reproduces its loss curve
  exactly.
* Workers start every fit from the parent's module buffers (BN running
  stats, :meth:`GradientWorkerPool.push_module_buffers`) and the parent
  adopts worker 0's at every epoch end.
* Contrastive objectives see per-shard negatives (as in standard data-
  parallel contrastive training), so a 2-worker curve is not the 1-worker
  curve — only reproducible against itself.

Pipelined producers (PR 8)
--------------------------
:class:`ProducerPool` runs the *produce* side of a training step (render +
augment) in ``n_producers`` persistent spawn processes ahead of the gradient
step.  Finished batches are published through a bounded shared-memory
:class:`RingArena` (``prefetch_depth`` slots, per-slot acquire/release
handshake on the parent), so the consumer reads zero-copy views while the
producers already work on later steps.  Determinism is *step-keyed*: every
per-batch stochastic stream derives from ``SeedSequence([seed, epoch,
step])`` (:func:`derive_step_seed`), never from arrival order or producer
identity — the pipelined loss curve is bit-identical at any producer count,
and producers can grow/shrink between epochs without changing it.

Self-healing (PR 9)
-------------------
Both pools accept a :class:`RestartPolicy`.  With one armed, a crashed
producer or gradient worker is respawned (bounded restarts, exponential
backoff with deterministic jitter) and the in-flight steps are replayed:
producers re-run exactly the steps whose results were never consumed (their
streams are step-keyed, so the replay is bit-identical), and a respawned
gradient worker re-receives its shard message and recomputes the loss, a
pure function of the shard and the broadcast parameters — the reduced
gradient matches the no-crash run bit for bit.  Exhausting the restart
budget raises :class:`WorkerError` as before (the trainer then degrades to the inline
path).  Fault-injection sites ``producer.step`` and ``worker.reduce``
(:mod:`repro.utils.faults`) sit inside the child step handlers so chaos
tests can kill children at exact step indices.
"""

from __future__ import annotations

import atexit
import pickle
import random
import time
import traceback
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.nn.flat import FlatLayout
from repro.utils.faults import fault_point

#: spawn is the one start method that is safe everywhere (threads, BLAS);
#: fork would duplicate the parent's whole heap including the render cache
DEFAULT_START_METHOD = "spawn"

#: seconds to wait for a worker reply before declaring it dead
DEFAULT_TIMEOUT = 120.0


class WorkerError(RuntimeError):
    """A gradient worker raised; carries the remote traceback."""


class RestartPolicy:
    """Bounded-restart policy with deterministic exponential backoff.

    The delay before the ``k``-th restart (0-based) is ``backoff_base_s *
    backoff_factor**k * (1 + jitter * u_k)`` where ``u_k`` is drawn from
    ``random.Random(f"{seed}:{k}")`` — the backoff schedule is a pure function
    of the policy, so chaos runs replay exactly.  ``sleep`` is injectable:
    tier-1 chaos tests pass a recording fake so no real time is spent.
    """

    def __init__(
        self,
        max_restarts: int = 2,
        *,
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
        sleep=None,
    ):
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_factor = float(backoff_factor)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.sleep = time.sleep if sleep is None else sleep

    def delay_s(self, restart_index: int) -> float:
        """Backoff delay before restart ``restart_index`` (deterministic)."""
        fraction = random.Random(f"{self.seed}:{int(restart_index)}").random()
        return (
            self.backoff_base_s
            * self.backoff_factor ** int(restart_index)
            * (1.0 + self.jitter * fraction)
        )

    def pause(self, restart_index: int) -> float:
        """Sleep out the backoff for ``restart_index``; returns the delay."""
        delay = self.delay_s(restart_index)
        self.sleep(delay)
        return delay


def derive_step_seed(seed: int, epoch: int, step: int) -> np.random.SeedSequence:
    """The per-batch RNG root of the pipelined path.

    Keyed by *schedule position*, never by which producer runs the batch or
    when it finishes — so the pipelined loss curve is invariant to the
    producer count, the prefetch depth and mid-training producer resizes,
    and a resume at ``(epoch, step)`` replays the identical streams.
    """
    return np.random.SeedSequence([int(seed), int(epoch), int(step)])


# --------------------------------------------------------------------------- #
# shared-memory helpers
# --------------------------------------------------------------------------- #
class _SharedBlock:
    """One shared-memory segment holding per-dtype 1-D arrays."""

    def __init__(self, nbytes_by_dtype: dict[str, int], *, create: bool, name: str | None = None):
        offsets, total = {}, 0
        for key, nbytes in sorted(nbytes_by_dtype.items()):
            offsets[key] = total
            total += max(int(nbytes), 0)
        self._shm = (
            SharedMemory(create=True, size=max(total, 1))
            if create
            else SharedMemory(name=name)
        )
        self.name = self._shm.name
        self.arrays: dict[str, np.ndarray] = {}
        for key, nbytes in nbytes_by_dtype.items():
            count = int(nbytes) // np.dtype(key).itemsize
            self.arrays[key] = np.ndarray(
                (count,), dtype=key, buffer=self._shm.buf, offset=offsets[key]
            )

    def close(self, *, unlink: bool) -> None:
        self.arrays = {}
        try:
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover - teardown race
            pass


class _SlotWriter:
    """Bounded writer over one ring slot, used by :func:`_encode_batch`.
    Arrays that do not fit the remaining slot space get ``None`` back (→ they
    travel pickled through the message queue instead)."""

    def __init__(self, buf, start: int, limit: int):
        self._buf = buf
        self._start = start
        self._limit = limit
        self._cursor = start

    def write(self, array: np.ndarray):
        array = np.ascontiguousarray(array)
        offset = self._cursor
        if offset + array.nbytes > self._limit:
            return None
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self._buf, offset=offset)
        view[...] = array
        self._cursor = offset + array.nbytes
        return (offset, array.dtype.name, tuple(array.shape))


class RingArena:
    """A bounded multi-slot shared-memory ring: the one batch transport
    between a parent and its child processes.

    One segment of ``depth`` equal slots.  The :class:`ProducerPool` ring
    has ``prefetch_depth`` slots and step ``s`` of an epoch always lands in
    slot ``s % depth`` (:meth:`slot_of`); the parent owns the free/ready
    handshake — :meth:`acquire` marks a step's slot busy before the produce
    message is sent, :meth:`release` frees it once the consumer finishes the
    step — so a slot is only ever rewritten after its previous occupant was
    fully consumed.  The :class:`GradientWorkerPool` ring has one slot per
    worker, rewritten by the parent every step.  Whoever writes a slot does
    so through :meth:`writer`; descriptors are absolute ``(offset, dtype,
    shape)`` triples the reader maps back as zero-copy views via
    :meth:`view`.  A child process maps the ring by :attr:`spec`
    (:func:`_attach_ring`); the parent sizes and regrows it with
    :func:`_fit_ring`.

    A batch larger than ``slot_nbytes`` does not deadlock the ring: the
    writer rejects the overflowing arrays and they travel pickled through the
    message queue instead (correct, just slower — counted per stream).
    """

    #: slot sizes are rounded up to this multiple so every slot start is
    #: cache-line aligned
    ALIGN = 64

    def __init__(
        self, depth: int, slot_nbytes: int, *, create: bool = True, name: str | None = None
    ):
        if depth < 2:
            raise ValueError(f"RingArena needs depth >= 2 (double-buffered), got {depth}")
        if slot_nbytes < 1:
            raise ValueError(f"slot_nbytes must be positive, got {slot_nbytes}")
        self.depth = int(depth)
        self.slot_nbytes = -(-int(slot_nbytes) // self.ALIGN) * self.ALIGN
        self._shm = (
            SharedMemory(create=True, size=self.depth * self.slot_nbytes)
            if create
            else SharedMemory(name=name)
        )
        self.name = self._shm.name
        self._busy: set[int] = set()

    @classmethod
    def attach(cls, name: str, depth: int, slot_nbytes: int) -> "RingArena":
        """Map an existing ring by name (producer side)."""
        return cls(depth, slot_nbytes, create=False, name=name)

    @property
    def spec(self) -> tuple[str, int, int]:
        """``(name, depth, slot_nbytes)`` — enough for a producer to attach."""
        return (self.name, self.depth, self.slot_nbytes)

    def slot_of(self, step: int) -> int:
        return int(step) % self.depth

    # ------------------------------------------------------- parent handshake
    def acquire(self, step: int) -> int | None:
        """Claim ``step``'s slot for writing; ``None`` while it is still busy.

        Backpressure lives here: with every slot busy (consumer stalled),
        acquire keeps returning ``None`` and the submitter must wait for a
        :meth:`release` before dispatching more work.
        """
        slot = self.slot_of(step)
        if slot in self._busy:
            return None
        self._busy.add(slot)
        return slot

    def release(self, step: int) -> None:
        """Free ``step``'s slot after its batch was fully consumed."""
        self._busy.discard(self.slot_of(step))

    @property
    def n_busy(self) -> int:
        return len(self._busy)

    # --------------------------------------------------------------- data I/O
    def writer(self, slot: int) -> _SlotWriter:
        """A fresh bounded writer over one slot."""
        if not 0 <= int(slot) < self.depth:
            raise ValueError(f"slot {slot} out of range for depth {self.depth}")
        start = int(slot) * self.slot_nbytes
        return _SlotWriter(self._shm.buf, start, start + self.slot_nbytes)

    def view(self, descriptor) -> np.ndarray:
        """Map a writer descriptor back to a zero-copy array view.

        Valid until the slot holding it is :meth:`release`-d and rewritten —
        the consumer must finish (or copy) before releasing.
        """
        offset, dtype, shape = descriptor
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)

    def close(self, *, unlink: bool) -> None:
        self._busy.clear()
        try:
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover - teardown race
            pass


def _fit_ring(ring: RingArena | None, depth: int, slot_nbytes: int) -> RingArena:
    """``ring`` while each slot holds ``slot_nbytes``, else a bigger one.

    The outgrown ring is unlinked; children still mapping it close their
    mapping when the next message names the new ring (:func:`_attach_ring`).
    The 1.25x head-room keeps a batch slightly larger than the last from
    regrowing the ring again.
    """
    needed = max(int(slot_nbytes), 1)
    if ring is not None and needed <= ring.slot_nbytes:
        return ring
    if ring is not None:
        ring.close(unlink=True)
    return RingArena(depth, int(needed * 1.25) + 64)


def _attach_ring(ring: RingArena | None, spec) -> RingArena:
    """A child's mapping of the ring ``spec`` names (see :attr:`RingArena.spec`).

    A new name means the parent regrew the ring: the mapping it replaces is
    closed so the parent's unlink actually frees the old segment's memory.
    """
    if ring is not None and ring.name == spec[0]:
        return ring
    if ring is not None:
        ring.close(unlink=False)
    return RingArena.attach(*spec)


def _encode_batch(batch, writer: _SlotWriter | None):
    """Replace ndarrays in a (possibly nested) batch with ring-slot descriptors."""
    if isinstance(batch, np.ndarray):
        descriptor = writer.write(batch) if writer is not None else None
        if descriptor is None:
            return ("pickle", batch)
        return ("shm", descriptor)
    if isinstance(batch, (tuple, list)):
        return ("seq", type(batch).__name__, [_encode_batch(item, writer) for item in batch])
    return ("raw", batch)


def _decode_batch(encoded, shm_buf, *, copy: bool = True):
    """Rebuild a batch from :func:`_encode_batch` output.

    With ``copy=True`` (the gradient-worker default) shared-memory arrays are
    **copied** out of the ring slot, because the parent rewrites the slot on
    the next step.  ``copy=False`` returns views — the producer-ring
    consumer's zero-copy path, safe because a ring slot is only released
    (and thus rewritten) after the consumer finishes the step.
    """
    kind = encoded[0]
    if kind == "shm":
        offset, dtype, shape = encoded[1]
        view = np.ndarray(shape, dtype=dtype, buffer=shm_buf, offset=offset)
        return view.copy() if copy else view
    if kind == "pickle":
        return encoded[1]
    if kind == "seq":
        items = [_decode_batch(item, shm_buf, copy=copy) for item in encoded[2]]
        return tuple(items) if encoded[1] == "tuple" else items
    return encoded[1]


def _count_pickled(encoded) -> int:
    """Arrays in an encoded batch that overflowed shared memory into pickles."""
    kind = encoded[0]
    if kind == "pickle":
        return 1
    if kind == "seq":
        return sum(_count_pickled(item) for item in encoded[2])
    return 0


def _estimate_nbytes(batch) -> int:
    if isinstance(batch, np.ndarray):
        return batch.nbytes
    if isinstance(batch, (tuple, list)):
        return sum(_estimate_nbytes(item) for item in batch)
    return 0


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _module_buffer_state(named_modules: dict) -> dict[str, np.ndarray]:
    """Non-parameter state (e.g. BN running stats) of every named module."""
    state: dict[str, np.ndarray] = {}
    for name, module in named_modules.items():
        parameter_keys = {key for key, _ in module.named_parameters()}
        for key, value in module.state_dict().items():
            if key not in parameter_keys:
                state[f"{name}.{key}"] = value
    return state


def _apply_named_buffers(named_modules: dict, state: dict[str, np.ndarray]) -> None:
    """Apply a :func:`_module_buffer_state` snapshot to same-named modules."""
    for name, module in named_modules.items():
        prefix = f"{name}."
        updates = {
            key[len(prefix) :]: value for key, value in state.items() if key.startswith(prefix)
        }
        if updates:
            _apply_module_buffers(module, updates)


def _apply_module_buffers(module, updates: dict[str, np.ndarray], prefix: str = "") -> None:
    """Set only the buffer entries of ``updates`` on ``module``, recursively.

    The targeted counterpart of :func:`_module_buffer_state` — parameters are
    untouched (the parent's are authoritative), so merging worker buffers
    costs a handful of small array copies instead of a full ``state_dict``
    round-trip per module per epoch.
    """
    for key in module._buffers():
        value = updates.get(f"{prefix}{key}")
        if value is not None:
            setattr(module, key, np.asarray(value).copy())
    for child_name, child in module._modules.items():
        _apply_module_buffers(child, updates, f"{prefix}{child_name}.")


def _worker_main(
    worker_index: int,
    factory,
    compute_dtype: str,
    signature,
    param_block_spec,
    grad_block_spec,
    command_queue,
    result_queue,
    step_arena: bool = True,
) -> None:
    """Entry point of one gradient worker process.

    Each step message carries a shard and a parameter version; the replica's
    ``batch_loss`` draws nothing at random, so a respawned worker that
    re-receives a step recomputes the identical gradient.
    """
    from repro.nn.arena import StepArena, set_active_arena
    from repro.nn.tensor import Tensor, set_default_dtype

    ring = param_block = grad_block = None
    try:
        set_default_dtype(np.dtype(compute_dtype))
        # each replica owns a private training-step buffer pool — arenas are
        # process-local, so shards pool independently and stay bit-identical
        # to the sequential path (pooling never changes values)
        buffer_pool = StepArena() if step_arena else None
        set_active_arena(buffer_pool)
        replica = factory()
        layout = FlatLayout(replica.parameters())
        if layout.signature() != signature:
            raise RuntimeError(
                f"worker {worker_index}: replica parameters do not match the "
                f"parent layout ({len(layout.signature())} vs {len(signature)} slots)"
            )
        param_block = _SharedBlock(param_block_spec[1], create=False, name=param_block_spec[0])
        grad_block = _SharedBlock(grad_block_spec[1], create=False, name=grad_block_spec[0])
        seen_version = -1
        result_queue.put((worker_index, "ready", None))
        while True:
            message = command_queue.get()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "step":
                _, version, encoded, ring_spec = message
                ring = _attach_ring(ring, ring_spec)
                if version != seen_version:  # params only move on optimizer steps
                    layout.unpack_data(param_block.arrays)
                    seen_version = version
                batch = _decode_batch(encoded, ring._shm.buf)
                for param in layout.parameters:
                    param.grad = None
                losses = replica.batch_loss(batch)
                if isinstance(losses, Tensor):
                    losses = {"loss": losses}
                losses["loss"].backward()
                fault_point("worker.reduce")
                layout.pack_grads(grad_block.arrays)
                logs = {
                    key: float(value.item()) if isinstance(value, Tensor) else float(value)
                    for key, value in losses.items()
                }
                if buffer_pool is not None:
                    buffer_pool.advance()
                result_queue.put((worker_index, "ok", logs))
            elif kind == "buffers":
                result_queue.put(
                    (worker_index, "buffers", _module_buffer_state(replica.named_modules()))
                )
            elif kind == "push_buffers":
                _apply_named_buffers(replica.named_modules(), message[1])
                result_queue.put((worker_index, "pushed", None))
    except Exception:  # pragma: no cover - exercised via WorkerError tests
        result_queue.put((worker_index, "error", traceback.format_exc()))
    finally:
        if ring is not None:
            ring.close(unlink=False)
        if param_block is not None:
            param_block.close(unlink=False)
        if grad_block is not None:
            grad_block.close(unlink=False)


# --------------------------------------------------------------------------- #
# parent-side pool
# --------------------------------------------------------------------------- #
class GradientWorkerPool:
    """Persistent pool of sharded gradient workers (parent side).

    Parameters
    ----------
    factory:
        Picklable zero-argument callable returning a replica object with
        ``parameters()``, ``batch_loss(batch)`` and ``named_modules()`` (see
        ``TrainLoop.worker_factory``).  ``batch_loss`` must draw nothing at
        random: every stochastic choice of a step is made before the batch
        is sharded.
    parameters:
        The parent's parameters, in the same order the replica yields them.
    n_workers:
        Number of worker processes (must be >= 2; ``n_workers=1`` is the
        sequential trainer path by contract).
    compute_dtype:
        Tensor default dtype installed in every worker (the trainer's
        ``DtypePolicy.compute_dtype``), so shards compute in the same
        precision as the sequential path.
    restart_policy:
        Optional :class:`RestartPolicy`.  When set, a worker that dies (or
        errors) mid-step is respawned under the same shard index and its
        step message is re-sent, so the replacement recomputes the
        identical gradient.  ``None`` keeps the historical fail-fast
        behaviour.
    step_arena:
        Give every worker replica a private
        :class:`~repro.nn.arena.StepArena` so its forward/backward passes
        pool buffers like the sequential trainer's (default on; values are
        unchanged either way).
    """

    def __init__(
        self,
        factory,
        parameters,
        *,
        n_workers: int,
        compute_dtype: str = "float64",
        start_method: str = DEFAULT_START_METHOD,
        timeout: float = DEFAULT_TIMEOUT,
        restart_policy: RestartPolicy | None = None,
        step_arena: bool = True,
    ):
        if n_workers < 2:
            raise ValueError(f"GradientWorkerPool needs n_workers >= 2, got {n_workers}")
        try:
            pickle.dumps(factory)
        except Exception as error:
            raise ValueError(
                f"worker_factory must be picklable for spawn-based workers: {error}"
            ) from error
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self._layout = FlatLayout(parameters)
        nbytes = self._layout.nbytes()
        self._param_block = _SharedBlock(nbytes, create=True)
        self._grad_blocks = [_SharedBlock(nbytes, create=True) for _ in range(self.n_workers)]
        #: one slot per worker, sized at each step to the largest shard
        self._ring: RingArena | None = None
        self._param_version = 0
        self._closed = False
        self._broken = False
        self._restart_policy = restart_policy
        self._restarts_used = 0
        #: workers respawned over the pool's lifetime (observability)
        self.restart_count = 0

        context = get_context(start_method)
        self._context = context
        self._factory = factory
        self._compute_dtype = str(compute_dtype)
        self._step_arena = bool(step_arena)
        self._nbytes = nbytes
        self._command_queues = [context.Queue() for _ in range(self.n_workers)]
        self._result_queue = context.Queue()
        signature = self._layout.signature()
        self._signature = signature
        self._processes = []
        for index in range(self.n_workers):
            process = context.Process(
                target=_worker_main,
                args=(
                    index,
                    factory,
                    compute_dtype,
                    signature,
                    (self._param_block.name, nbytes),
                    (self._grad_blocks[index].name, nbytes),
                    self._command_queues[index],
                    self._result_queue,
                    self._step_arena,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        self._collect({index: "ready" for index in range(self.n_workers)})
        # an abandoned pool (estimator dropped without shutdown_workers())
        # must never leave the interpreter hanging on live worker processes
        # or queue feeder threads; close() unregisters this again
        atexit.register(self.close)

    # ----------------------------------------------------------------- plumbing
    @property
    def usable(self) -> bool:
        """True while the pool can still run steps (not closed, not broken)."""
        return not self._closed and not self._broken

    def _may_restart(self, count: int = 1) -> bool:
        policy = self._restart_policy
        return policy is not None and self._restarts_used + count <= policy.max_restarts

    def _respawn_worker(self, index: int) -> None:
        """Reap a dead worker and bring up a replacement under the same shard.

        The replacement attaches to the same shared param/grad blocks and the
        same command queue; its first step message re-broadcasts parameters
        (``seen_version`` starts at -1), so no extra sync is needed.
        """
        import queue as queue_module

        process = self._processes[index]
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - hung worker
            process.terminate()
            process.join(timeout=5.0)
        # a worker that died before reading its command would leave the step
        # message queued — drain so the replacement does not run it twice
        while True:
            try:
                self._command_queues[index].get_nowait()
            except (queue_module.Empty, OSError):
                break
        replacement = self._context.Process(
            target=_worker_main,
            args=(
                index,
                self._factory,
                self._compute_dtype,
                self._signature,
                (self._param_block.name, self._nbytes),
                (self._grad_blocks[index].name, self._nbytes),
                self._command_queues[index],
                self._result_queue,
                self._step_arena,
            ),
            daemon=True,
        )
        replacement.start()
        self._processes[index] = replacement
        self.restart_count += 1

    def _collect(
        self, expected: dict[int, str], *, resend: dict[int, tuple] | None = None
    ) -> dict[int, object]:
        """Gather one reply per expected worker, surfacing remote errors.

        Without ``resend`` (or without a restart policy) any failure marks
        the pool *broken*: replies from workers that were still in flight
        stay in the result queue, so a later ``step`` could otherwise pair a
        stale gradient with a new batch.

        With ``resend`` (the step path) a dead or errored worker is
        respawned — backoff, same shard index — and its original step
        message from ``resend`` is re-sent once the replacement reports
        ready; collection then continues until every shard replied.
        """
        import queue as queue_module

        remaining = dict(expected)
        replies: dict[int, object] = {}
        while remaining:
            failed: list[int] = []
            try:
                worker_index, kind, payload = self._result_queue.get(timeout=self.timeout)
            except queue_module.Empty:
                dead = [i for i in remaining if not self._processes[i].is_alive()]
                if not dead or resend is None or not self._may_restart(len(dead)):
                    self._broken = True
                    raise WorkerError(
                        f"timed out waiting for gradient workers (dead: {dead or 'none'})"
                    ) from None
                failed = dead
            else:
                if kind == "error":
                    if (
                        resend is None
                        or worker_index not in resend
                        or not self._may_restart()
                    ):
                        self._broken = True
                        raise WorkerError(f"gradient worker {worker_index} failed:\n{payload}")
                    failed = [worker_index]
                elif kind != remaining.get(worker_index):
                    self._broken = True
                    raise WorkerError(
                        f"protocol error: worker {worker_index} sent {kind!r}, "
                        f"expected {remaining.get(worker_index)!r}"
                    )
                elif kind == "ready" and resend is not None and worker_index in resend:
                    # replacement is up: replay its shard, then await the "ok"
                    self._command_queues[worker_index].put(resend[worker_index])
                    remaining[worker_index] = "ok"
                    continue
                else:
                    replies[worker_index] = payload
                    del remaining[worker_index]
                    continue
            for worker_index in failed:
                self._restarts_used += 1
                self._restart_policy.pause(self._restarts_used - 1)
                self._respawn_worker(worker_index)
                remaining[worker_index] = "ready"
        return replies

    # --------------------------------------------------------------------- step
    def step(self, shards, *, accumulate: bool = False) -> dict[str, float]:
        """Run one sharded forward/backward; deposit gradients on the parent.

        ``shards`` is ``[(batch, weight), ...]`` from ``TrainLoop.
        shard_batch`` (weights are shard sample counts).  Returns the
        shard-weighted metric logs.  Gradients land in each parameter's
        ``.grad`` — reduced in fixed worker order — ready for callbacks and
        ``optimizer.step()`` exactly like a sequential backward.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._broken:
            raise RuntimeError(
                "worker pool is broken after a prior worker error; "
                "close it and create a new pool"
            )
        shards = [(batch, float(weight)) for batch, weight in shards if weight > 0]
        if not shards:
            raise ValueError("step() requires at least one non-empty shard")
        if len(shards) > self.n_workers:
            raise ValueError(f"got {len(shards)} shards for {self.n_workers} workers")
        if not accumulate:
            # parameters only change at optimizer steps, so micro-batches
            # inside an accumulation window reuse the last broadcast
            self._layout.pack_data(self._param_block.arrays)
            self._param_version += 1
        ring = self._ring = _fit_ring(
            self._ring, self.n_workers, max(_estimate_nbytes(batch) for batch, _ in shards)
        )
        messages: dict[int, tuple] = {}
        for worker_index, (batch, _) in enumerate(shards):
            encoded = _encode_batch(batch, ring.writer(worker_index))
            message = ("step", self._param_version, encoded, ring.spec)
            messages[worker_index] = message
            self._command_queues[worker_index].put(message)
        replies = self._collect(
            {index: "ok" for index in range(len(shards))},
            resend=messages if self._restart_policy is not None else None,
        )

        total_weight = sum(weight for _, weight in shards)
        weights = [weight / total_weight for _, weight in shards]
        self._layout.reduce_grads(
            [self._grad_blocks[index].arrays for index in range(len(shards))],
            weights,
            accumulate=accumulate,
        )
        logs: dict[str, float] = {}
        for worker_index, weight in enumerate(weights):
            for key, value in replies[worker_index].items():
                logs[key] = logs.get(key, 0.0) + weight * value
        return logs

    # ------------------------------------------------------------------ buffers
    def push_module_buffers(self, named_modules: dict) -> None:
        """Send the parent's non-parameter module state to every worker.

        The counterpart of :meth:`sync_module_buffers`: a fit that resumes a
        checkpoint (or runs on reloaded weights) starts every replica's BN
        running statistics from the parent's instead of from initialisation.
        """
        if self._closed or self._broken:
            return
        state = _module_buffer_state(named_modules)
        for queue in self._command_queues:
            queue.put(("push_buffers", state))
        self._collect({index: "pushed" for index in range(self.n_workers)})

    def sync_module_buffers(self, named_modules: dict) -> None:
        """Pull non-parameter module state (BN running stats) from worker 0.

        Parameters are authoritative on the parent (it owns the optimizer);
        running statistics are only updated by worker-side forwards, so they
        are fetched from the first shard's replica — deterministic at a fixed
        worker count — and merged into the parent modules before epoch-end
        callbacks (checkpoints, serving) observe them.
        """
        if self._closed or self._broken:
            return
        self._command_queues[0].put(("buffers",))
        _apply_named_buffers(named_modules, self._collect({0: "buffers"})[0])

    # -------------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the workers and release every shared-memory segment.

        Idempotent: a second call (or a call racing interpreter shutdown) is
        a silent no-op.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for queue in self._command_queues:
            try:
                queue.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for queue in self._command_queues:
            queue.close()
        self._result_queue.close()
        self._param_block.close(unlink=True)
        for block in self._grad_blocks:
            block.close(unlink=True)
        if self._ring is not None:
            self._ring.close(unlink=True)
            self._ring = None

    def __enter__(self) -> "GradientWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------------- #
# pipelined batch producers
# --------------------------------------------------------------------------- #
def _producer_main(producer_index, factory, compute_dtype, work_queue, result_queue) -> None:
    """Entry point of one batch-producer process.

    Producers are homogeneous pullers on one shared work queue: any producer
    may run any step, because every stochastic stream a step consumes is
    derived from the step key (:func:`derive_step_seed`) inside ``produce``
    itself — producer identity never reaches the curve.
    """
    import time as time_module

    from repro.nn.tensor import set_default_dtype

    ring = None
    try:
        set_default_dtype(np.dtype(compute_dtype))
        producer = factory(producer_index)
        result_queue.put((producer_index, "ready", None))
        while True:
            message = work_queue.get()
            if message[0] == "stop":
                break
            _, generation, epoch, step, slot, ring_spec, payload = message
            fault_point("producer.step")
            start = time_module.perf_counter()
            produced = producer.produce(epoch, step, payload)
            ring = _attach_ring(ring, ring_spec)
            encoded = _encode_batch(produced, ring.writer(slot))
            seconds = time_module.perf_counter() - start
            result_queue.put(
                (
                    producer_index,
                    "ok",
                    (generation, step, encoded, seconds, _count_pickled(encoded)),
                )
            )
    except Exception:  # pragma: no cover - exercised via WorkerError tests
        result_queue.put((producer_index, "error", traceback.format_exc()))
    finally:
        if ring is not None:
            ring.close(unlink=False)


class ProducerPool:
    """Persistent pool of pipelined batch producers (parent side).

    Parameters
    ----------
    factory:
        Picklable ``factory(producer_index)`` returning a producer object
        with ``produce(epoch, step, payload)`` (see
        ``TrainLoop.producer_factory``).  It takes no pool-size argument:
        per-step streams are keyed by :func:`derive_step_seed`, so replicas
        must not (and cannot) condition on the producer count — that is what
        makes :meth:`resize` curve-safe.
    n_producers:
        Producer process count (>= 1; ``0`` never reaches this class — the
        trainer then produces inline on the parent).
    prefetch_depth:
        Ring slots, i.e. the maximum number of in-flight produced batches
        (>= 2, double-buffered minimum).
    compute_dtype:
        Tensor default dtype installed in every producer, matching the
        consumer's precision policy.
    restart_policy:
        Optional :class:`RestartPolicy`.  When set, a producer crash during
        :meth:`stream` triggers stop-the-world recovery: the remaining
        producers are cycled, the generation counter fences off stale
        results, and every in-flight step without a consumed result is
        resubmitted — step-keyed streams make the replayed batches
        bit-identical.  ``None`` keeps the historical fail-fast behaviour.
    """

    def __init__(
        self,
        factory,
        *,
        n_producers: int,
        prefetch_depth: int = 2,
        compute_dtype: str = "float64",
        start_method: str = DEFAULT_START_METHOD,
        timeout: float = DEFAULT_TIMEOUT,
        restart_policy: RestartPolicy | None = None,
    ):
        if n_producers < 1:
            raise ValueError(f"ProducerPool needs n_producers >= 1, got {n_producers}")
        if prefetch_depth < 2:
            raise ValueError(
                f"prefetch_depth must be >= 2 (double-buffered), got {prefetch_depth}"
            )
        try:
            pickle.dumps(factory)
        except Exception as error:
            raise ValueError(
                f"producer_factory must be picklable for spawn-based producers: {error}"
            ) from error
        self._factory = factory
        self.prefetch_depth = int(prefetch_depth)
        self.timeout = float(timeout)
        self._compute_dtype = str(compute_dtype)
        self._context = get_context(start_method)
        self._work_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        self._ring: RingArena | None = None
        self._closed = False
        self._broken = False
        self._processes: dict[int, object] = {}
        self._next_index = 0
        self._restart_policy = restart_policy
        self._restarts_used = 0
        self._target_producers = int(n_producers)
        #: fence for results: bumped on every recovery, pre-crash results are
        #: discarded by generation mismatch
        self._generation = 0
        #: recoveries and replayed steps over the pool's lifetime
        self.restart_count = 0
        self.replayed_steps = 0
        #: per-stream pipeline counters of the most recent epoch (see stream())
        self.last_stream_stats: dict[str, float] | None = None
        self._spawn(int(n_producers))
        atexit.register(self.close)

    @property
    def n_producers(self) -> int:
        return len(self._processes)

    @property
    def usable(self) -> bool:
        """True while the pool can still stream (not closed, not broken)."""
        return not self._closed and not self._broken

    def _may_restart(self) -> bool:
        policy = self._restart_policy
        return policy is not None and self._restarts_used < policy.max_restarts

    # ----------------------------------------------------------------- spawn
    def _spawn(self, count: int) -> None:
        fresh = []
        for _ in range(count):
            index = self._next_index
            self._next_index += 1
            process = self._context.Process(
                target=_producer_main,
                args=(
                    index,
                    self._factory,
                    self._compute_dtype,
                    self._work_queue,
                    self._result_queue,
                ),
                daemon=True,
            )
            process.start()
            self._processes[index] = process
            fresh.append(index)
        pending = set(fresh)
        while pending:
            index, kind, payload = self._wait_result()
            if kind == "ok":
                # a pre-recovery result that survived the drain; the
                # generation fence would discard it anyway
                continue
            if kind != "ready" or index not in pending:
                self._broken = True
                raise WorkerError(
                    f"protocol error: producer {index} sent {kind!r} during startup"
                )
            pending.discard(index)

    def _recover_producers(self) -> None:
        """Stop-the-world producer recovery after a crash.

        Producers are identity-free pullers on one shared work queue, so the
        cheapest correct recovery is to cycle the whole set: drain the work
        queue (no pre-crash produce message may reach a fresh producer),
        stop/reap every process, discard queued results, bump the generation
        fence and respawn to the target count.  The caller then resubmits
        the in-flight steps it still needs.
        """
        import queue as queue_module

        def drain_work_queue():
            while True:
                try:
                    self._work_queue.get_nowait()
                except (queue_module.Empty, OSError):
                    return

        drain_work_queue()
        for process in self._processes.values():
            if process.is_alive():
                try:
                    self._work_queue.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover - teardown race
                    pass
        for process in self._processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._processes.clear()
        # a producer reaped mid-step may have left its stop unconsumed — a
        # fresh producer must not eat it and exit
        drain_work_queue()
        while True:
            try:
                self._result_queue.get(timeout=0.05)
            except (queue_module.Empty, OSError):
                break
        self._generation += 1
        self._broken = False
        self._spawn(self._target_producers)

    def _wait_result(self):
        """One result-queue message, with liveness-checked timeout.

        Waits in short slices so a crashed producer surfaces as a
        :class:`WorkerError` within a couple of seconds instead of
        deadlocking the ring until the full timeout.
        """
        import queue as queue_module
        import time as time_module

        deadline = time_module.monotonic() + self.timeout
        while True:
            try:
                message = self._result_queue.get(timeout=1.0)
            except queue_module.Empty:
                dead = [i for i, p in self._processes.items() if not p.is_alive()]
                if dead:
                    # give a queued error traceback one chance to beat the
                    # liveness check (the process may have died right after
                    # reporting)
                    try:
                        message = self._result_queue.get_nowait()
                    except queue_module.Empty:
                        self._broken = True
                        raise WorkerError(
                            f"producer process(es) {dead} died without a reply"
                        ) from None
                else:
                    if time_module.monotonic() > deadline:
                        self._broken = True
                        raise WorkerError(
                            "timed out waiting for batch producers (dead: none)"
                        ) from None
                    continue
            index, kind, payload = message
            if kind == "error":
                self._broken = True
                raise WorkerError(f"batch producer {index} failed:\n{payload}")
            return index, kind, payload

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("producer pool is closed")
        if self._broken:
            raise RuntimeError(
                "producer pool is broken after a prior producer error; "
                "close it and create a new pool"
            )

    # ---------------------------------------------------------------- stream
    def stream(self, epoch: int, payloads, *, slot_nbytes: int = 0):
        """Yield produced batches for ``payloads`` in submission (step) order.

        ``payloads`` is a lazy iterable of per-step produce inputs; at most
        ``prefetch_depth`` are in flight (and thus parent-resident) at once,
        so an out-of-core epoch never materialises.  Yielded batches are
        zero-copy views into the ring — each step's slot is released when the
        generator is resumed for the next step, i.e. after the consumer
        finished its forward/backward.  ``slot_nbytes`` hints the produced
        batch size (the ring grows to fit; oversize arrays still fall back to
        pickling).  On exhaustion (or abandonment) the in-flight tail is
        drained so the pool stays usable; ``last_stream_stats`` then holds
        the epoch's produce/stall/occupancy counters.

        With a :class:`RestartPolicy`, a producer crash mid-epoch recovers
        in place: the pool is cycled (:meth:`_recover_producers`) and every
        in-flight step whose result was not yet received is resubmitted from
        the retained payloads — the yielded batch sequence is unchanged and,
        because produce is step-keyed, bit-identical.  Budget exhaustion
        re-raises :class:`WorkerError` for the caller's degradation ladder.
        """
        import time as time_module

        self._check_usable()
        ring = self._ring = _fit_ring(self._ring, self.prefetch_depth, slot_nbytes)
        payload_iter = iter(payloads)
        stats = {
            "steps": 0,
            "produce_seconds": 0.0,
            "stall_seconds": 0.0,
            "oversize_arrays": 0,
            "restarts": 0,
            "replayed_steps": 0,
            "n_producers": float(self.n_producers),
            "prefetch_depth": float(self.prefetch_depth),
        }
        submitted = consumed = 0
        exhausted = False
        pending: dict[int, tuple] = {}
        # payloads of steps submitted but not yet consumed — the replay
        # source after a recovery (bounded by prefetch_depth entries)
        inflight_payloads: dict[int, object] = {}
        wall_start = time_module.perf_counter()

        def submit_next():
            nonlocal submitted, exhausted
            try:
                payload = next(payload_iter)
            except StopIteration:
                exhausted = True
                return
            slot = ring.acquire(submitted)
            assert slot is not None  # depth-bounded submission keeps slots free
            inflight_payloads[submitted] = payload
            self._work_queue.put(
                ("produce", self._generation, epoch, submitted, slot, ring.spec, payload)
            )
            submitted += 1

        def recover_and_replay():
            self._restarts_used += 1
            self._restart_policy.pause(self._restarts_used - 1)
            self._recover_producers()
            replayed = 0
            for step in range(consumed, submitted):
                if step in pending:
                    continue  # result arrived before the crash; still valid
                self._work_queue.put(
                    (
                        "produce",
                        self._generation,
                        epoch,
                        step,
                        ring.slot_of(step),
                        ring.spec,
                        inflight_payloads[step],
                    )
                )
                replayed += 1
            stats["restarts"] += 1
            stats["replayed_steps"] += replayed
            self.restart_count += 1
            self.replayed_steps += replayed

        def wait_step_result():
            """Fold one same-generation result into ``pending``; self-heal."""
            while True:
                try:
                    _, _, payload = self._wait_result()
                except WorkerError:
                    if not self._may_restart():
                        raise
                    recover_and_replay()
                    continue
                generation, step, encoded, seconds, n_pickled = payload
                if generation != self._generation:
                    continue  # stale pre-recovery result
                pending[step] = (encoded, seconds, n_pickled)
                return

        try:
            while not exhausted and submitted - consumed < self.prefetch_depth:
                submit_next()
            while consumed < submitted:
                wait_start = time_module.perf_counter()
                while consumed not in pending:
                    wait_step_result()
                stats["stall_seconds"] += time_module.perf_counter() - wait_start
                encoded, seconds, n_pickled = pending.pop(consumed)
                stats["produce_seconds"] += seconds
                stats["oversize_arrays"] += n_pickled
                stats["steps"] += 1
                try:
                    yield _decode_batch(encoded, ring._shm.buf, copy=False)
                finally:
                    # runs on normal resume AND on mid-yield abandonment, so
                    # the outer drain never waits for an already-taken reply
                    ring.release(consumed)
                    inflight_payloads.pop(consumed, None)
                    consumed += 1
                if not exhausted:
                    submit_next()
        finally:
            # consumer done or bailed mid-epoch: drain the in-flight tail so
            # slots free up and no stale reply can pair with a future stream
            while consumed < submitted:
                try:
                    if consumed not in pending:
                        _, _, payload = self._wait_result()
                        generation, step, encoded, seconds, n_pickled = payload
                        if generation == self._generation:
                            pending[step] = (encoded, seconds, n_pickled)
                        continue
                except WorkerError:
                    break  # pool already marked broken
                pending.pop(consumed)
                ring.release(consumed)
                inflight_payloads.pop(consumed, None)
                consumed += 1
            wall = time_module.perf_counter() - wall_start
            stats["wall_seconds"] = wall
            stats["occupancy"] = (
                stats["produce_seconds"] / (self.n_producers * wall) if wall > 0 else 0.0
            )
            self.last_stream_stats = stats

    # ---------------------------------------------------------------- resize
    def resize(self, n_producers: int) -> None:
        """Grow or shrink the producer set between epochs.

        Curve-safe by construction: producers are identity-free pullers on a
        shared queue, so the schedule and every per-step stream are unchanged
        — only the produce-side parallelism moves.  Must not be called while
        a :meth:`stream` is active.
        """
        self._check_usable()
        n_producers = int(n_producers)
        if n_producers < 1:
            raise ValueError(f"resize needs n_producers >= 1, got {n_producers}")
        self._target_producers = n_producers
        current = len(self._processes)
        if n_producers > current:
            self._spawn(n_producers - current)
            return
        if n_producers == current:
            return
        import time as time_module

        for _ in range(current - n_producers):
            self._work_queue.put(("stop",))
        deadline = time_module.monotonic() + self.timeout
        while len(self._processes) > n_producers:
            for index, process in list(self._processes.items()):
                process.join(timeout=0.05)
                if not process.is_alive():
                    del self._processes[index]
            if time_module.monotonic() > deadline:  # pragma: no cover - hung producer
                self._broken = True
                raise WorkerError("timed out shrinking the producer pool")

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the producers and release the ring.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for _ in range(len(self._processes)):
            try:
                self._work_queue.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        for process in self._processes.values():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung producer
                process.terminate()
                process.join(timeout=5.0)
        self._work_queue.close()
        self._result_queue.close()
        if self._ring is not None:
            self._ring.close(unlink=True)
            self._ring = None

    def __enter__(self) -> "ProducerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
