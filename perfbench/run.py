"""Lifecycle benchmark of the AimTS reproduction at the default ``AimTSConfig``.

Usage::

    python3 perfbench/run.py                          # every workload, one process each
    python3 perfbench/run.py --workload pretrain --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --trace 1    # per-layer metrics
    python3 perfbench/run.py --write-spec             # regenerate BENCHMARK.json

A single-workload run prints its figures by name and unit, a ``record`` line
(also appended to ``.perfbench_out/records.jsonl``) and, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` or, with
``--trace 1``, its per-layer metrics.  It measures the ``src/`` tree next to
this directory and writes only under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description="Lifecycle benchmark; see perfbench/README.md.")
    parser.add_argument("--workload", default="all", help="a workload of spec.py, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0, help="seed every input is generated from")
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json from spec.py")
    return parser.parse_args(argv)


def _json_default(value):
    return value.item() if hasattr(value, "item") else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import spec

    if args.write_spec:
        target = ROOT / "BENCHMARK.json"
        target.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        print(f"wrote {target}")
        return 0
    if args.workload != "all" and args.workload not in {**spec.WORKLOADS, **spec.EXTRA_WORKLOADS}:
        choices = ", ".join([*spec.WORKLOADS, *spec.EXTRA_WORKLOADS, "all"])
        print(f"perfbench: unknown workload {args.workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    if args.seconds is None:
        args.seconds = float(spec.RUN_SECONDS)
    OUT.mkdir(exist_ok=True)
    # the program's own temporary files (spawned producers included) stay in the checkout
    os.environ["TMPDIR"] = str(OUT)
    # one BLAS thread per process, set before NumPy loads (spawned producers
    # inherit it): on a shared two-core machine a second BLAS thread mostly
    # waits for a core, which made default-config pre-training slower and its
    # run-to-run spread larger
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(spec.BLAS_THREADS)
    tempfile.tempdir = None
    if args.workload == "all":
        return _run_all(args, spec)
    try:
        return _run_one(args, spec)
    finally:
        _stop_children()


def _stop_children() -> None:
    """Stop every process the program started and wait for each to end.

    Producer pools join their processes on close, but the resource tracker
    of their shared memory and semaphores outlives them: without this it
    would exit only after this process, unwaited for.
    """
    from multiprocessing import resource_tracker, util

    # what interpreter exit would run: every multiprocessing finalizer (which
    # unlinks and unregisters the semaphores), then terminate and join children
    util._exit_function()
    resource_tracker._resource_tracker._stop()  # closes its pipe, then waits for it
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _run_one(args, spec) -> int:
    from perfbench import layers, stamp, workloads
    from perfbench.trace import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        for entry in layers.entry_points():
            tracer.add(*entry)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        context = workloads.Context(seed=args.seed, seconds=args.seconds, tmp=scratch, tracer=tracer)
        outcome = workloads.WORKLOADS[args.workload](context)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env = stamp.stamp(ROOT, outcome.configs)
    if tracer is None:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        values = outcome.metrics
    else:
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        counters = {**outcome.layer, "nn.matmul_roofline_gflops": env["matmul_roofline_gflops"]}
        values = layers.per_layer_metrics(tracer.spans, counters)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    correct = all(outcome.checks.values())

    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:>14.6g} {unit}")
    for name, ok in outcome.checks.items():
        print(f"  check {name:<26} {'ok' if ok else 'FAILED'}")
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": values,
        "report": outcome.report,
        "checks": outcome.checks,
        "stamp": env,
    }
    line = json.dumps(record, default=_json_default)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print("record " + line)
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _run_all(args, spec) -> int:
    """Run every workload in its own process, so each peak RSS is its own."""
    failures = []
    for name in [*spec.WORKLOADS, *spec.EXTRA_WORKLOADS]:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        try:
            correct = bool(json.loads(lines[-1])["correct"])
        except (IndexError, ValueError, KeyError):
            correct = False
        if completed.returncode != 0 or not correct:
            failures.append(name)
            sys.stderr.write(completed.stderr)
    if failures:
        print(f"perfbench: failed: {', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
