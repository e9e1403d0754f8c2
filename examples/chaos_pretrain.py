"""Chaos demo: crash the training pipeline on purpose and watch it heal.

The tour:

1. pre-train a small AimTS model with the producer/worker pipeline enabled
   and record its loss curves — this is the no-fault reference,
2. sample a deterministic :class:`repro.utils.faults.FaultPlan` from a seed
   (each fault is a ``(site, invocation_index)`` pair that raises exactly
   once, fused so a respawned process does not re-fire it),
3. rerun the identical pre-train with the plan armed and a
   :class:`repro.engine.RestartPolicy` attached — producers and gradient
   workers that crash are respawned with jittered exponential backoff and
   the lost steps are replayed from their step-keyed seeds,
4. assert the recovered loss curves are **bit-identical** to the reference
   (``==`` on float64 tuples, not ``allclose``), and print the restart /
   replay counters from the trainer's pipeline summary.

This script doubles as the randomized stress probe for the chaos workflow
(``.github/workflows/chaos.yml``): each workflow iteration passes a fresh
``--fault-seed`` so the faults land on different sites and steps every run,
while the recovery contract stays the same.  Exit code is non-zero when the
recovered curve diverges.

Run with:  PYTHONPATH=src python examples/chaos_pretrain.py [--fault-seed N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from repro.core import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.engine import RestartPolicy
from repro.utils import faults
from repro.utils.faults import FaultPlan

#: the two pipeline arms the stress probe exercises — producers require the
#: sequential gradient path (n_workers=1) and sharded workers require the
#: inline batch path (n_producers=0), so each arm samples faults from its
#: own site.  Serving and corpus sites have their own tests in
#: tests/test_reliability.py and no pipeline to exercise here.
ARMS = (
    ("producer", "producer.step", dict(n_producers=1, prefetch_depth=2)),
    ("worker", "worker.reduce", dict(n_workers=2)),
)


def pretrain_curves(pool: np.ndarray, *, heal: bool, **knobs) -> tuple:
    model = AimTSPretrainer(
        AimTSConfig(
            repr_dim=16,
            proj_dim=8,
            hidden_channels=8,
            depth=1,
            panel_size=16,
            series_length=pool.shape[-1],
            batch_size=8,
            epochs=3,
            seed=0,
            **knobs,
        )
    )
    if heal:
        model.restart_policy = RestartPolicy(max_restarts=3, seed=0)
    history = model.fit(pool)
    summary = model.trainer.pipeline_summary()
    if model._worker_pool is not None:
        summary = dict(summary, restarts=model._worker_pool.restart_count)
    model.shutdown_workers()
    curves = (
        tuple(history.total_loss),
        tuple(history.prototype_loss),
        tuple(history.series_image_loss),
    )
    return curves, summary


def run_arm(name, site, knobs, pool, *, fault_seed, n_faults) -> bool:
    print(f"== {name} arm: no-fault reference run ==")
    reference, _ = pretrain_curves(pool, heal=False, **knobs)
    print(f"   total-loss curve: {[round(v, 6) for v in reference[0]]}")

    with tempfile.TemporaryDirectory() as scratch:
        plan = FaultPlan.sample(
            [site], seed=fault_seed, n_faults=n_faults, max_index=4,
            scratch_dir=scratch,
        )
        print(f"== {name} arm: chaos run (fault seed {fault_seed}) ==")
        for fault_site, index in plan.pairs():
            print(f"   will crash {fault_site} on invocation {index}")
        with faults.armed(plan):
            healed, summary = pretrain_curves(pool, heal=True, **knobs)

    identical = healed == reference
    print(
        f"   restarts: {summary['restarts']}, "
        f"replayed steps: {summary.get('replayed_steps', 0)}"
    )
    print(f"   recovered curve bit-identical to reference: {identical}\n")
    return identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for FaultPlan.sample — each seed crashes different steps",
    )
    parser.add_argument(
        "--n-faults",
        type=int,
        default=2,
        help="how many (site, invocation) faults to inject per arm (default 2)",
    )
    args = parser.parse_args(argv)

    pool = np.random.default_rng(0).normal(size=(32, 1, 64))
    diverged = [
        name
        for name, site, knobs in ARMS
        if not run_arm(
            name, site, knobs, pool,
            fault_seed=args.fault_seed, n_faults=args.n_faults,
        )
    ]
    if diverged:
        print(
            f"DIVERGED in {', '.join(diverged)} arm(s) — recovery broke the "
            "determinism contract",
            file=sys.stderr,
        )
        return 1
    print("all arms recovered bit-identically")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
