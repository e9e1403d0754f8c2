"""Sharded data-parallel gradient workers and pipelined batch producers.

Both pools run **persistent** spawn-safe ``multiprocessing`` children, each
with a private duplex pipe to the parent (:class:`_ChildPool`).

A :class:`GradientWorkerPool` keeps ``n_workers`` gradient workers alive
across the whole ``fit``.  Each worker builds one replica of the training
loop's modules (via the loop's picklable ``worker_factory``), and every
optimizer step then runs as:

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

Pipelined producers
-------------------
:class:`ProducerPool` runs the *produce* side of a training step (render +
augment) in ``n_producers`` producer processes ahead of the gradient step.
Finished batches are published through a bounded shared-memory
:class:`RingArena` (``prefetch_depth`` slots, per-slot acquire/release
handshake on the parent), so the consumer reads zero-copy views while the
producers already work on later steps.  Determinism is *step-keyed*: every
per-batch stochastic stream derives from ``SeedSequence([seed, epoch,
step])`` (:func:`derive_step_seed`), never from arrival order or producer
identity — the pipelined loss curve is bit-identical at any producer count.

Pipes and self-healing
----------------------
The parent sends a child a message only when the child has answered its
last one, so the child is blocked in ``recv`` whenever the parent writes to
it and no pipe can deadlock.  One wait —
:func:`multiprocessing.connection.wait` over the children's pipe ends and
process sentinels, bounded by the pool ``timeout`` — takes every reply and
sees a death at once, a child SIGKILLed half-way through writing a reply
(the OOM killer, ``process.kill()``) included.

Both pools accept a :class:`RestartPolicy` and recover the same way: a
child that dies or raises is respawned under the same index with a fresh
pipe (bounded restarts, exponential backoff with deterministic jitter) and
sent its one unanswered message again.  A producer re-runs its step, whose
streams are step-keyed, so the replay is bit-identical; a gradient worker
starts from the module buffers last pushed or pulled and recomputes its
shard's loss, a pure function of the shard and the broadcast parameters —
the reduced gradient matches the no-crash run bit for bit.  A child silent
for ``timeout`` counts as failed: it is killed and recovered the same way.
A failure beyond the restart budget raises :class:`WorkerError` and breaks
the pool (the trainer then degrades a pipelined fit to the inline path).
Fault-injection sites ``producer.step`` and ``worker.reduce``
(:mod:`repro.utils.faults`) sit inside the child step handlers so chaos
tests can kill children at exact step indices.
"""

from __future__ import annotations

import atexit
import contextlib
import pickle
import random
import time
import traceback
from multiprocessing import get_context
from multiprocessing.connection import wait
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.nn.flat import FlatLayout
from repro.utils.faults import fault_point

#: spawn is the one start method that is safe everywhere (threads, BLAS);
#: fork would duplicate the parent's whole heap including the render cache
DEFAULT_START_METHOD = "spawn"

#: seconds to wait for a child's reply before the pool gives up on it
DEFAULT_TIMEOUT = 120.0


class WorkerError(RuntimeError):
    """A pool child raised, died or fell silent; carries the remote traceback
    when it raised."""


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
    producer count and the prefetch depth, and a resume at ``(epoch, step)``
    replays the identical streams.
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
    travel pickled through the child's pipe instead)."""

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
    child's pipe instead (correct, just slower — counted per stream).
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
# one pipe per child: the supervisor both pools share
# --------------------------------------------------------------------------- #
def _serve(connection, handle) -> None:
    """A child's message loop: report ready, then answer every message.

    Each message gets exactly one reply, ``("ok", handle(message))``.  The
    parent closing its end of the pipe is the stop signal.
    """
    connection.send(("ready", None))
    while True:
        try:
            message = connection.recv()
        except EOFError:
            return
        connection.send(("ok", handle(message)))


def _report_error(connection) -> None:
    """Send the active exception's traceback, if the parent still listens."""
    with contextlib.suppress(OSError):
        connection.send(("error", traceback.format_exc()))


class _ChildPool:
    """The children of one pool, each with a private duplex pipe.

    Child ``index`` runs ``target(connection, *self._child_args(index))``.
    The supervisor spawns it, sends to it, respawns it under the same index
    with a fresh pipe, and stops it by closing the pipe.  ``_unanswered``
    holds each child's one outstanding message: a child gets a message only
    after answering its last, so it is always blocked in ``recv`` when the
    parent writes to it.
    """

    def __init__(self, target, role: str, factory, *, start_method, timeout, restart_policy):
        try:
            pickle.dumps(factory)
        except Exception as error:
            raise ValueError(
                f"the {role} factory must be picklable for spawn-based children: {error}"
            ) from error
        self._target = target
        self._role = role
        self._factory = factory
        self._context = get_context(start_method)
        self.timeout = float(timeout)
        #: the policy the next recovery reads (:class:`PersistentPools` sets
        #: it again before each fit); its budget counts over the pool's life
        self.restart_policy = restart_policy
        self._restarts_used = 0
        #: children respawned over the pool's lifetime (observability)
        self.restart_count = 0
        #: unanswered messages sent again to a respawned child
        self.resent_messages = 0
        self._processes: dict[int, object] = {}
        self._connections: dict[int, object] = {}
        self._unanswered: dict[int, object] = {}
        self._ring: RingArena | None = None
        self._closed = False
        self._broken = False

    def _child_args(self, index: int) -> tuple:
        raise NotImplementedError

    @property
    def usable(self) -> bool:
        """True while the pool can still run (not closed, not broken)."""
        return not self._closed and not self._broken

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self._role} pool is closed")
        if self._broken:
            raise RuntimeError(
                f"{self._role} pool is broken after a prior {self._role} error; "
                "close it and create a new pool"
            )

    # ------------------------------------------------------------ children
    def _launch(self, count: int) -> None:
        """Spawn children ``0 .. count - 1`` and wait until each is ready."""
        # an abandoned pool (estimator dropped without shutdown_workers())
        # must never leave the interpreter hanging on live children or
        # shared memory; close() unregisters this again
        atexit.register(self.close)
        for index in range(count):
            self._spawn(index)
        try:
            for index in range(count):
                _, kind, payload = self._wait([index])
                if kind != "ready":
                    raise WorkerError(self._failure(index, kind, payload))
        except WorkerError:
            self.close()
            raise

    def _spawn(self, index: int) -> None:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=self._target,
            args=(child_end, *self._child_args(index)),
            # the name lets an operator or a test find a child through
            # multiprocessing.active_children()
            name=f"{self._role} {index}",
            daemon=True,
        )
        process.start()
        # the child now holds the pipe's only other end: its death ends the pipe
        child_end.close()
        self._processes[index] = process
        self._connections[index] = parent_end

    def _reap(self, indices) -> None:
        """Close the children's pipes (their stop signal) and join them."""
        indices = list(indices)
        for index in indices:
            self._connections.pop(index).close()
        for index in indices:
            process = self._processes.pop(index)
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung child
                process.terminate()
                process.join(timeout=5.0)

    def _send(self, index: int, message) -> None:
        """Give child ``index`` a message; it has answered its last one.

        Writing to a dead child fails silently: the next wait sees the death.
        """
        assert index not in self._unanswered, f"{self._role} {index} is still busy"
        self._unanswered[index] = message
        with contextlib.suppress(OSError):
            self._connections[index].send(message)

    def _wait(self, indices) -> tuple[int, str, object]:
        """The next message of one of children ``indices``: ``(index, kind, payload)``.

        One wait over their pipe ends and process sentinels, bounded by
        ``timeout``.  A reply is read whole; a dead child — one killed
        part-way through writing a reply too — reads as ``kind == "died"``,
        and when all of them stay silent for ``timeout`` the lowest index
        reads as ``kind == "silent"``.
        """
        handles = {}
        for index in indices:
            handles[self._connections[index]] = index
            handles[self._processes[index].sentinel] = index
        ready = wait(list(handles), timeout=self.timeout)
        if not ready:
            return min(handles.values()), "silent", None
        index = handles[ready[0]]
        connection = self._connections[index]
        try:
            if connection.poll():  # a reply written just before dying still counts
                kind, payload = connection.recv()
                return index, kind, payload
        except (EOFError, OSError):
            pass
        return index, "died", None

    def _failure(self, index: int, kind: str, payload) -> str:
        if kind == "error":
            return f"{self._role} {index} failed:\n{payload}"
        if kind == "silent":
            return f"{self._role} {index} fell silent for {self.timeout:g} s"
        return f"{self._role} {index} died without a reply"

    def _recover(self, index: int, kind: str, payload) -> None:
        """Respawn failed child ``index`` and resend its unanswered message.

        Beyond the restart budget the pool breaks with :class:`WorkerError`.
        """
        policy = self.restart_policy
        while policy is not None and self._restarts_used < policy.max_restarts:
            policy.pause(self._restarts_used)
            self._restarts_used += 1
            if kind == "silent":  # a hung child never reads its closed pipe
                self._processes[index].kill()
            self._reap([index])
            self._spawn(index)
            self.restart_count += 1
            _, kind, payload = self._wait([index])
            if kind == "ready":
                self._send(index, self._unanswered.pop(index))
                self.resent_messages += 1
                return
        self._broken = True
        raise WorkerError(self._failure(index, kind, payload))

    def _reply(self, indices) -> tuple[int, object]:
        """The next answer of one of children ``indices``: ``(index, payload)``.

        A child that died, raised or fell silent is recovered first
        (:meth:`_recover`).
        """
        while True:
            index, kind, payload = self._wait(indices)
            if kind == "ok":
                del self._unanswered[index]
                return index, payload
            self._recover(index, kind, payload)

    def _collect(self, indices) -> dict[int, object]:
        """One answer of each of children ``indices``."""
        waiting, replies = set(indices), {}
        while waiting:
            index, payload = self._reply(waiting)
            waiting.discard(index)
            replies[index] = payload
        return replies

    # -------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the children and release the ring.

        Idempotent: a second call (or a call racing interpreter shutdown) is
        a silent no-op.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self._reap(list(self._processes))
        self._unanswered.clear()
        if self._ring is not None:
            self._ring.close(unlink=True)
            self._ring = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------------- #
# gradient workers
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
    connection,
    worker_index: int,
    factory,
    compute_dtype: str,
    signature,
    param_block_spec,
    grad_block_spec,
    step_arena: bool,
    buffer_state: dict[str, np.ndarray] | None,
) -> None:
    """Entry point of one gradient worker process.

    Each step message carries a shard and a parameter version; the replica's
    ``batch_loss`` draws nothing at random, so a respawned worker that
    re-receives a step recomputes the identical gradient.  ``buffer_state``
    (a respawn's last pushed or pulled module buffers) is applied before the
    worker reports ready, so a replacement keeps the BN running statistics.
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
        if buffer_state is not None:
            _apply_named_buffers(replica.named_modules(), buffer_state)
        layout = FlatLayout(replica.parameters())
        if layout.signature() != signature:
            raise RuntimeError(
                f"worker {worker_index}: replica parameters do not match the "
                f"parent layout ({len(layout.signature())} vs {len(signature)} slots)"
            )
        param_block = _SharedBlock(param_block_spec[1], create=False, name=param_block_spec[0])
        grad_block = _SharedBlock(grad_block_spec[1], create=False, name=grad_block_spec[0])
        seen_version = -1

        def handle(message):
            nonlocal ring, seen_version
            kind = message[0]
            if kind == "buffers":
                return _module_buffer_state(replica.named_modules())
            if kind == "push_buffers":
                _apply_named_buffers(replica.named_modules(), message[1])
                return None
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
            return logs

        _serve(connection, handle)
    except Exception:  # pragma: no cover - exercised via WorkerError tests
        _report_error(connection)
    finally:
        if ring is not None:
            ring.close(unlink=False)
        if param_block is not None:
            param_block.close(unlink=False)
        if grad_block is not None:
            grad_block.close(unlink=False)


class GradientWorkerPool(_ChildPool):
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
        Optional :class:`RestartPolicy`.  When set, a worker that dies,
        errors or falls silent for ``timeout`` is respawned under the same
        shard index and sent its unanswered message again, so the
        replacement recomputes the identical gradient.  ``None`` keeps the
        historical fail-fast behaviour: any failure breaks the pool.
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
        super().__init__(
            _worker_main,
            "gradient worker",
            factory,
            start_method=start_method,
            timeout=timeout,
            restart_policy=restart_policy,
        )
        self.n_workers = int(n_workers)
        self._compute_dtype = str(compute_dtype)
        self._step_arena = bool(step_arena)
        self._layout = FlatLayout(parameters)
        self._nbytes = self._layout.nbytes()
        self._param_block = _SharedBlock(self._nbytes, create=True)
        self._grad_blocks = [
            _SharedBlock(self._nbytes, create=True) for _ in range(self.n_workers)
        ]
        self._param_version = 0
        #: module buffers last pushed to or pulled from the workers; a
        #: respawned worker starts from them
        self._buffer_state: dict[str, np.ndarray] | None = None
        self._launch(self.n_workers)

    def _child_args(self, index: int) -> tuple:
        # a respawned worker re-broadcasts parameters on its first step
        # message (its ``seen_version`` starts at -1), so no extra sync
        return (
            index,
            self._factory,
            self._compute_dtype,
            self._layout.signature(),
            (self._param_block.name, self._nbytes),
            (self._grad_blocks[index].name, self._nbytes),
            self._step_arena,
            self._buffer_state,
        )

    # --------------------------------------------------------------------- step
    def step(self, shards, *, accumulate: bool = False) -> dict[str, float]:
        """Run one sharded forward/backward; deposit gradients on the parent.

        ``shards`` is ``[(batch, weight), ...]`` from ``TrainLoop.
        shard_batch`` (weights are shard sample counts).  Returns the
        shard-weighted metric logs.  Gradients land in each parameter's
        ``.grad`` — reduced in fixed worker order — ready for callbacks and
        ``optimizer.step()`` exactly like a sequential backward.
        """
        self._check_usable()
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
        for worker_index, (batch, _) in enumerate(shards):
            encoded = _encode_batch(batch, ring.writer(worker_index))
            self._send(worker_index, ("step", self._param_version, encoded, ring.spec))
        replies = self._collect(range(len(shards)))

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
        if not self.usable:
            return
        state = self._buffer_state = _module_buffer_state(named_modules)
        for index in range(self.n_workers):
            self._send(index, ("push_buffers", state))
        self._collect(range(self.n_workers))

    def sync_module_buffers(self, named_modules: dict) -> None:
        """Pull non-parameter module state (BN running stats) from worker 0.

        Parameters are authoritative on the parent (it owns the optimizer);
        running statistics are only updated by worker-side forwards, so they
        are fetched from the first shard's replica — deterministic at a fixed
        worker count — and merged into the parent modules before epoch-end
        callbacks (checkpoints, serving) observe them.
        """
        if not self.usable:
            return
        self._send(0, ("buffers",))
        self._buffer_state = self._collect([0])[0]
        _apply_named_buffers(named_modules, self._buffer_state)

    # -------------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the workers and release every shared-memory segment.

        Idempotent: a second call (or a call racing interpreter shutdown) is
        a silent no-op.
        """
        if self._closed:
            return
        super().close()
        self._param_block.close(unlink=True)
        for block in self._grad_blocks:
            block.close(unlink=True)


# --------------------------------------------------------------------------- #
# pipelined batch producers
# --------------------------------------------------------------------------- #
def _producer_main(connection, producer_index: int, factory, compute_dtype: str) -> None:
    """Entry point of one batch-producer process.

    Any producer may run any step, because every stochastic stream a step
    consumes is derived from the step key (:func:`derive_step_seed`) inside
    ``produce`` itself — producer identity never reaches the curve.
    """
    from repro.nn.tensor import set_default_dtype

    ring = None
    try:
        set_default_dtype(np.dtype(compute_dtype))
        producer = factory(producer_index)

        def handle(message):
            nonlocal ring
            epoch, step, slot, ring_spec, payload = message
            fault_point("producer.step")
            start = time.perf_counter()
            produced = producer.produce(epoch, step, payload)
            ring = _attach_ring(ring, ring_spec)
            encoded = _encode_batch(produced, ring.writer(slot))
            seconds = time.perf_counter() - start
            return step, encoded, seconds, _count_pickled(encoded)

        _serve(connection, handle)
    except Exception:  # pragma: no cover - exercised via WorkerError tests
        _report_error(connection)
    finally:
        if ring is not None:
            ring.close(unlink=False)


#: end-of-payloads marker of :meth:`ProducerPool.stream`
_END = object()


class ProducerPool(_ChildPool):
    """Persistent pool of pipelined batch producers (parent side).

    Parameters
    ----------
    factory:
        Picklable ``factory(producer_index)`` returning a producer object
        with ``produce(epoch, step, payload)`` (see
        ``TrainLoop.producer_factory``).  It takes no pool-size argument:
        per-step streams are keyed by :func:`derive_step_seed`, so replicas
        must not (and cannot) condition on the producer count.
    n_producers:
        Producer process count (>= 1; ``0`` never reaches this class — the
        trainer then produces inline on the parent).
    prefetch_depth:
        Ring slots, i.e. the maximum number of produced batches held at once
        (>= 2, double-buffered minimum).  A producer works on one step at a
        time, so the look-ahead is at most one step per producer: at most
        ``min(n_producers, prefetch_depth - 1)`` steps are produced while the
        consumer trains, and a depth above ``n_producers + 1`` adds nothing.
    compute_dtype:
        Tensor default dtype installed in every producer, matching the
        consumer's precision policy.
    restart_policy:
        Optional :class:`RestartPolicy`.  When set, a producer that dies,
        raises or falls silent for ``timeout`` during :meth:`stream` is
        respawned and sent its unanswered step again — step-keyed streams
        make the replayed batch bit-identical.  ``None`` keeps the
        historical fail-fast behaviour.
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
        super().__init__(
            _producer_main,
            "batch producer",
            factory,
            start_method=start_method,
            timeout=timeout,
            restart_policy=restart_policy,
        )
        self.n_producers = int(n_producers)
        self.prefetch_depth = int(prefetch_depth)
        self._compute_dtype = str(compute_dtype)
        #: per-stream pipeline counters of the most recent epoch (see stream())
        self.last_stream_stats: dict[str, float] | None = None
        self._launch(self.n_producers)

    def _child_args(self, index: int) -> tuple:
        return (index, self._factory, self._compute_dtype)

    # ---------------------------------------------------------------- stream
    def stream(self, epoch: int, payloads, *, slot_nbytes: int = 0):
        """Yield produced batches for ``payloads`` in submission (step) order.

        ``payloads`` is a lazy iterable of per-step produce inputs.  Step
        ``s`` goes to an idle producer once its ring slot is free, i.e. once
        step ``s - prefetch_depth`` was consumed, so at most
        ``prefetch_depth`` steps are parent-resident at once and an
        out-of-core epoch never materialises.  A producer that finished its
        step waits for the next one until the consumer resumes the stream.
        Yielded batches are zero-copy views into the ring — each step's slot
        is released when the generator is resumed for the next step, i.e.
        after the consumer finished its forward/backward.  ``slot_nbytes``
        hints the produced batch size (the ring grows to fit; oversize arrays
        still fall back to pickling).  On exhaustion (or abandonment) the
        in-flight replies are taken so the pool stays usable;
        ``last_stream_stats`` then holds the epoch's produce/stall/occupancy
        counters.

        With a :class:`RestartPolicy`, a producer that dies, raises or falls
        silent is respawned and sent its step again (:meth:`_recover`) — the
        yielded batch sequence is unchanged and, because produce is
        step-keyed, bit-identical.  Budget exhaustion raises
        :class:`WorkerError` for the caller's degradation ladder.
        """
        self._check_usable()
        ring = self._ring = _fit_ring(self._ring, self.prefetch_depth, slot_nbytes)
        payload_iter = iter(payloads)
        stats = {
            "steps": 0,
            "produce_seconds": 0.0,
            "stall_seconds": 0.0,
            "oversize_arrays": 0,
            "n_producers": float(self.n_producers),
            "prefetch_depth": float(self.prefetch_depth),
        }
        restarts, resent = self.restart_count, self.resent_messages
        submitted = consumed = 0
        exhausted = False
        #: replies received ahead of their turn, by step
        produced: dict[int, tuple] = {}
        wall_start = time.perf_counter()

        def submit() -> None:
            """Hand the next steps to idle producers while their slots are free."""
            nonlocal submitted, exhausted
            idle = [index for index in self._processes if index not in self._unanswered]
            while idle and not exhausted and submitted - consumed < self.prefetch_depth:
                payload = next(payload_iter, _END)
                if payload is _END:
                    exhausted = True
                    return
                slot = ring.acquire(submitted)
                assert slot is not None  # depth-bounded submission keeps slots free
                self._send(idle.pop(0), (epoch, submitted, slot, ring.spec, payload))
                submitted += 1

        try:
            submit()
            while consumed < submitted:
                wait_start = time.perf_counter()
                while consumed not in produced:
                    _, (step, encoded, seconds, n_pickled) = self._reply(list(self._unanswered))
                    produced[step] = (encoded, seconds, n_pickled)
                    submit()
                stats["stall_seconds"] += time.perf_counter() - wait_start
                encoded, seconds, n_pickled = produced.pop(consumed)
                stats["produce_seconds"] += seconds
                stats["oversize_arrays"] += n_pickled
                stats["steps"] += 1
                try:
                    yield _decode_batch(encoded, ring._shm.buf, copy=False)
                finally:
                    # runs on normal resume AND on mid-yield abandonment
                    ring.release(consumed)
                    consumed += 1
                submit()
        finally:
            # consumer done or bailed mid-epoch: take the in-flight replies so
            # no stale one can pair with a later stream, and free their slots
            if self.usable:
                with contextlib.suppress(WorkerError):
                    self._collect(list(self._unanswered))
            for step in range(consumed, submitted):
                ring.release(step)
            wall = time.perf_counter() - wall_start
            stats["restarts"] = self.restart_count - restarts
            stats["replayed_steps"] = self.resent_messages - resent
            stats["wall_seconds"] = wall
            stats["occupancy"] = (
                stats["produce_seconds"] / (self.n_producers * wall) if wall > 0 else 0.0
            )
            self.last_stream_stats = stats


# --------------------------------------------------------------------------- #
# the pools an estimator keeps across fits
# --------------------------------------------------------------------------- #
class PersistentPools:
    """Gradient-worker and producer pools kept alive across an estimator's fits.

    Mixed into the pre-training estimators: :meth:`_open_pools` readies the
    pools before each fit (the trainer borrows them, and a borrowed pool is
    closed by its owner), and :meth:`shutdown_workers` stops both.
    """

    #: persistent gradient worker pool (``config.n_workers >= 2``), spawned
    #: by the first fit and reused by every later one
    _worker_pool: GradientWorkerPool | None = None
    #: persistent batch-producer pool (``config.n_producers >= 1``), spawned
    #: by the first fit and reused by every later one
    _producer_pool: ProducerPool | None = None
    #: optional :class:`RestartPolicy` armed on the pools before each fit,
    #: on a live pool as on a new one.  Kept off the config so injectable
    #: test clocks never travel to spawn children with the pickled config.
    restart_policy: RestartPolicy | None = None

    def _open_pools(self, loop, parameters, config, compute_dtype: str) -> None:
        """Spawn the pools ``config`` asks for that are not running yet, and
        arm every pool with the current :attr:`restart_policy`.

        A pool that broke (or was closed) in an earlier fit is replaced, not
        reused — e.g. after the trainer degraded a pipelined fit to inline.
        Replicas are pure functions of the config, so reusing a live pool is
        always safe.
        """
        if self._worker_pool is not None and not self._worker_pool.usable:
            self._worker_pool.close()
            self._worker_pool = None
        if self._producer_pool is not None and not self._producer_pool.usable:
            self._producer_pool.close()
            self._producer_pool = None
        if config.n_workers > 1 and self._worker_pool is None:
            self._worker_pool = GradientWorkerPool(
                loop.worker_factory(),
                parameters,
                n_workers=config.n_workers,
                compute_dtype=compute_dtype,
                step_arena=config.step_arena,
            )
        if config.n_producers >= 1 and self._producer_pool is None:
            self._producer_pool = ProducerPool(
                loop.producer_factory(),
                n_producers=config.n_producers,
                prefetch_depth=config.prefetch_depth,
                compute_dtype=compute_dtype,
            )
        for pool in (self._worker_pool, self._producer_pool):
            if pool is not None:
                pool.restart_policy = self.restart_policy

    def shutdown_workers(self) -> None:
        """Stop the persistent worker and producer pools (idempotent no-op
        when sequential / already stopped)."""
        for pool in (self._worker_pool, self._producer_pool):
            if pool is not None:
                pool.close()
        self._worker_pool = self._producer_pool = None
