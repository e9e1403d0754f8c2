"""StepArena pooling contract + the PR 10 allocation-regression gate.

The training-side buffer arena (:mod:`repro.nn.arena`) promises that a
fixed-configuration training step reaches an allocation-free steady state:
after warmup every array the forward/backward passes materialise comes from
the pool (zero misses), generation rollover is a counter reset, and pooled
buffers replicate the memory layout the allocate-fresh expressions would
have produced (so reduction orders — and therefore float bits — are
unchanged; the bit-identity side is pinned in ``tests/test_precision.py``).
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.encoders import TSEncoder
from repro.nn.arena import (
    StepArena,
    _layout_perm,
    active_arena,
    result_template,
    use_arena,
)
from repro.nn.tensor import Tensor, default_dtype, get_default_dtype, is_grad_enabled, no_grad


# --------------------------------------------------------------------------- #
# pool disciplines
# --------------------------------------------------------------------------- #
class TestStepArenaPooling:
    def test_buffer_reuses_slot_across_generations(self):
        arena = StepArena()
        first = arena.buffer("conv.out", (4, 8), np.float32)
        arena.advance()
        second = arena.buffer("conv.out", (4, 8), np.float32)
        assert first is second
        assert arena.stats() == {
            "hits": 1,
            "misses": 1,
            "generation": 1,
            "nbytes": first.nbytes,
            "peak_bytes": first.nbytes,
            "buffers": 1,
        }

    def test_repeated_requests_within_a_generation_never_alias(self):
        arena = StepArena()
        first = arena.buffer("grad", (3, 3), np.float64)
        second = arena.buffer("grad", (3, 3), np.float64)
        assert first is not second
        arena.advance()
        # occurrence order is stable: the N-th request gets the N-th slot
        assert arena.buffer("grad", (3, 3), np.float64) is first
        assert arena.buffer("grad", (3, 3), np.float64) is second

    def test_scratch_is_a_single_slot_within_a_generation(self):
        arena = StepArena()
        first = arena.scratch("vjp", (5,), np.float32)
        second = arena.scratch("vjp", (5,), np.float32)
        assert first is second  # transient slot, reissued immediately

    def test_shape_and_dtype_changes_get_their_own_slots(self):
        arena = StepArena()
        full = arena.buffer("cols", (8, 24), np.float32)
        tail = arena.buffer("cols", (3, 24), np.float32)  # last-batch remainder
        double = arena.buffer("cols", (8, 24), np.float64)
        assert full is not tail and full is not double
        arena.advance()
        assert arena.buffer("cols", (8, 24), np.float32) is full
        assert arena.buffer("cols", (3, 24), np.float32) is tail

    def test_like_replicates_a_permuted_layout(self):
        # a conv output transpose-view: (B, T, C) storage addressed as (B, C, T)
        template = np.zeros((4, 6, 5)).transpose(0, 2, 1)
        arena = StepArena()
        buf = arena.buffer("out", template.shape, template.dtype, like=template)
        assert buf.shape == template.shape
        assert buf.strides == template.strides
        assert not buf.flags.c_contiguous
        # a C-contiguous `like` is the same slot family as like=None
        c_buf = arena.buffer("plain", (4, 5, 6), np.float64, like=np.zeros((4, 5, 6)))
        arena.advance()
        assert arena.buffer("plain", (4, 5, 6), np.float64) is c_buf

    def test_clear_drops_buffers_and_bytes(self):
        arena = StepArena()
        arena.buffer("a", (16,), np.float64)
        assert arena.nbytes() == 128
        arena.clear()
        assert arena.nbytes() == 0
        assert arena.stats()["buffers"] == 0

    def test_use_arena_scopes_and_restores_on_error(self):
        assert active_arena() is None
        arena = StepArena()
        with use_arena(arena):
            assert active_arena() is arena
            with use_arena(None):  # None = allocate-fresh, valid nesting
                assert active_arena() is None
            assert active_arena() is arena
        assert active_arena() is None
        with pytest.raises(RuntimeError):
            with use_arena(arena):
                raise RuntimeError("boom")
        assert active_arena() is None


# --------------------------------------------------------------------------- #
# scopes are per thread
# --------------------------------------------------------------------------- #
def _scopes() -> tuple:
    return is_grad_enabled(), get_default_dtype(), active_arena()


class TestScopesArePerThread:
    """``no_grad`` / ``default_dtype`` / ``use_arena`` cover the calling
    thread only: serving workers run inside them concurrently."""

    def test_a_thread_inside_the_scopes_leaves_the_main_thread_alone(self):
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            arena = StepArena()
            with no_grad(), default_dtype(np.float32), use_arena(arena):
                seen["worker"] = _scopes() == (False, np.dtype(np.float32), arena)
                inside.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            assert _scopes() == (True, np.dtype(np.float64), None)
        finally:
            release.set()
            thread.join(timeout=30)
        assert seen["worker"]

    def test_a_new_thread_starts_from_the_defaults(self):
        seen = {}
        with no_grad(), default_dtype(np.float32), use_arena(StepArena()):
            thread = threading.Thread(target=lambda: seen.update(scopes=_scopes()))
            thread.start()
            thread.join(timeout=30)
        assert seen["scopes"] == (True, np.dtype(np.float64), None)


# --------------------------------------------------------------------------- #
# layout helpers
# --------------------------------------------------------------------------- #
class TestLayoutHelpers:
    def test_layout_perm_none_for_c_order(self):
        assert _layout_perm(np.zeros((3, 4, 5))) is None

    def test_layout_perm_recovers_transpose_order(self):
        assert _layout_perm(np.zeros((3, 4, 5)).transpose(0, 2, 1)) == (0, 2, 1)
        assert _layout_perm(np.asfortranarray(np.zeros((3, 4)))) == (1, 0)

    def test_result_template_follows_agreeing_permuted_operands(self):
        permuted = np.zeros((2, 5, 3)).transpose(0, 2, 1)
        other = np.zeros((2, 5, 3)).transpose(0, 2, 1)
        assert result_template(permuted.shape, permuted, other) is permuted

    def test_result_template_c_when_layouts_disagree_or_broadcast(self):
        permuted = np.zeros((2, 5, 3)).transpose(0, 2, 1)
        c_order = np.zeros((2, 3, 5))
        # disagreement between full-shape operands -> C order
        assert result_template(permuted.shape, permuted, c_order) is None
        # broadcast operands never constrain the layout
        assert result_template(permuted.shape, permuted, np.zeros((1, 1, 5))) is permuted
        # all-C operands -> C order
        assert result_template(c_order.shape, c_order) is None


# --------------------------------------------------------------------------- #
# allocation regression: steady-state steps are allocation-free
# --------------------------------------------------------------------------- #
class TestSteadyStateAllocations:
    #: steady-state traced peak must stay far below one unpooled step
    #: (measured ~124 KB pooled vs ~1.24 MB allocate-fresh on this config)
    STEADY_STATE_PEAK_BYTES = 512 * 1024

    def _step(self, encoder: TSEncoder, x: np.ndarray) -> None:
        encoder.zero_grad()
        out = encoder(Tensor(x))
        loss = (out * out).sum()
        loss.backward()

    def test_fixed_shape_steps_reach_zero_misses_after_warmup(self):
        with default_dtype(np.float32):
            encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=2, rng=5)
            x = np.random.default_rng(0).normal(size=(8, 2, 64)).astype(np.float32)
            arena = StepArena()
            misses = []
            with use_arena(arena):
                for _ in range(5):
                    self._step(encoder, x)
                    arena.advance()
                    misses.append(arena.stats()["misses"])
        # every allocation happens in step 1; steps N > 2 perform zero misses
        assert misses[2:] == [misses[1]] * len(misses[2:]), misses
        # ...and every miss created exactly one pooled buffer (no thrash)
        assert arena.stats()["buffers"] == arena.stats()["misses"]
        assert arena.stats()["hits"] > 0
        assert arena.stats()["peak_bytes"] == arena.nbytes()

    def test_steady_state_step_allocation_bytes_bounded(self):
        with default_dtype(np.float32):
            encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=2, rng=5)
            x = np.random.default_rng(0).normal(size=(8, 2, 64)).astype(np.float32)
            arena = StepArena()
            with use_arena(arena):
                for _ in range(3):  # warmup: populate every pool slot
                    self._step(encoder, x)
                    arena.advance()
                misses = arena.stats()["misses"]
                tracemalloc.start()
                self._step(encoder, x)
                arena.advance()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
        assert arena.stats()["misses"] == misses  # the traced step pooled everything
        assert peak < self.STEADY_STATE_PEAK_BYTES, (
            f"steady-state step allocated {peak} bytes "
            f"(bound {self.STEADY_STATE_PEAK_BYTES})"
        )


# --------------------------------------------------------------------------- #
# trainer integration: config knob, stats surface, phase profiler
# --------------------------------------------------------------------------- #
class TestTrainerIntegration:
    @pytest.fixture()
    def pool(self) -> np.ndarray:
        return np.random.default_rng(0).normal(size=(16, 1, 64))

    def _config(self, **overrides) -> AimTSConfig:
        base = dict(
            repr_dim=8,
            proj_dim=8,
            hidden_channels=8,
            depth=1,
            panel_size=24,
            series_length=64,
            n_variables=1,
            batch_size=8,
            epochs=2,
            seed=3407,
        )
        base.update(overrides)
        return AimTSConfig(**base)

    def test_pretrain_fit_runs_arena_at_zero_steady_state_misses(self, pool):
        pretrainer = AimTSPretrainer(self._config())
        pretrainer.fit(pool)
        stats = pretrainer.trainer.arena_stats()
        # one allocation per pooled slot over the whole fit — i.e. zero
        # misses after the first occurrence of each (shape, dtype, layout)
        assert stats["misses"] == stats["buffers"]
        assert stats["hits"] > stats["misses"]
        assert stats["generation"] >= 2 * 2  # steps = epochs * batches
        assert stats["peak_bytes"] > 0

    def test_step_arena_off_reports_empty_stats(self, pool):
        pretrainer = AimTSPretrainer(self._config(step_arena=False))
        pretrainer.fit(pool)
        assert pretrainer.trainer.step_arena is None
        assert pretrainer.trainer.arena_stats() == {}

    def test_profiler_records_phase_columns(self, pool):
        pretrainer = AimTSPretrainer(self._config())
        pretrainer.profile = True
        history = pretrainer.fit(pool)
        epochs = len(history.total_loss)
        for phase in ("forward", "backward", "optimizer", "fetch"):
            curve = pretrainer.trainer.history.curve(f"profile_{phase}_seconds")
            assert len(curve) == epochs
            assert all(v >= 0.0 for v in curve)
        summary = pretrainer.trainer.pipeline_summary()
        assert summary["profile_forward_seconds"] > 0.0
        assert summary["profile_backward_seconds"] > 0.0

    def test_profiler_off_by_default(self, pool):
        pretrainer = AimTSPretrainer(self._config())
        pretrainer.fit(pool)
        assert pretrainer.trainer.profiler is None
        assert "profile_forward_seconds" not in pretrainer.trainer.pipeline_summary()
