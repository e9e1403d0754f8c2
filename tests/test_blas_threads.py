"""float64 training does not depend on the BLAS thread count.

Every conv forward, input gradient and weight gradient is a BLAS GEMM.
OpenBLAS splits a GEMM across its threads only above a size cutoff, so the
fit runs at the default ``AimTSConfig`` widths (conv1d weight GEMMs of about
16 x 16 x 7,840 multiply-adds per kernel tap, still above that cutoff), not
at a tiny test config that could stay on one thread.  OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when NumPy loads, so each thread count runs in
a fresh interpreter.

Run as a script, ``python tests/test_blas_threads.py`` performs one 1-epoch
fit and prints its curves and a SHA-256 of every ``state_dict`` entry of
every pre-training module as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _fit_report() -> dict:
    import hashlib

    import numpy as np

    from repro.core.config import AimTSConfig
    from repro.core.pretrainer import AimTSPretrainer

    pool = np.random.default_rng(0).normal(size=(64, 1, 96))
    pretrainer = AimTSPretrainer(AimTSConfig(epochs=1, seed=0))
    history = pretrainer.fit(pool)
    digests = {
        f"{name}.{key}": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        for name, module in pretrainer.trainer.loop.named_modules().items()
        for key, value in module.state_dict().items()
    }
    tasks = Path("/proc/self/task")
    return {
        "curves": [history.total_loss, history.prototype_loss, history.series_image_loss],
        "digests": digests,
        "os_threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
    }


def _run_with_blas_threads(n_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_float64_fit_is_identical_at_one_and_two_blas_threads():
    one, two = (_run_with_blas_threads(n) for n in (1, 2))
    if two["os_threads"] is not None and two["os_threads"] < 2:
        pytest.skip("OpenBLAS started no second thread on this host")
    assert one["curves"] == two["curves"]
    assert one["digests"] == two["digests"]


if __name__ == "__main__":
    print(json.dumps(_fit_report()))
