"""Throughput-trajectory report over the ``BENCH_*.json`` measurement files.

Every perf benchmark module appends one JSON record per run, so the files at
the repo root hold the whole measured performance history of the
reproduction.  This script condenses them into a table per file: one row per
benchmark name and headline metric (``*samples_per_sec*`` / ``*speedup*`` /
``*hit_rate*`` / ``*requests_per_sec*`` / ``*latency_ms*``), showing the
first recorded value, the latest, the delta of the latest run against the
run before it, and the overall trajectory.

Measurement files are discovered by globbing ``BENCH_*.json`` in the target
directory, so a new benchmark module only has to pick a file name — no
registration here.  A preferred pipeline order (:data:`BENCH_FILES`) is kept
for the known files; newcomers sort alphabetically after them.

Run it locally after a benchmark session, or let the ``Perf benchmarks``
workflow write it into the GitHub job summary::

    PYTHONPATH=src python -m repro.utils.bench_report [--dir REPO_ROOT]

The output is GitHub-flavoured markdown (tables render in job summaries and
terminals alike).  Exit code 0 even when files are missing — the report
describes what exists, it does not gate.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: known measurement files, in pipeline order (used only for sorting —
#: discovery is by glob, see :func:`discover_bench_files`)
BENCH_FILES = (
    "BENCH_imaging.json",
    "BENCH_corpus.json",
    "BENCH_training.json",
    "BENCH_inference.json",
    "BENCH_serving.json",
)

#: substrings marking a record field as a headline metric worth tracking
METRIC_MARKERS = (
    "samples_per_sec",
    "speedup",
    "hit_rate",
    "requests_per_sec",
    "latency_ms",
    "peak_rss_mb",
    "producer_occupancy",
    "consumer_stall_seconds",
    "goodput_rps",
    "n_shed",
    "n_deadline_expired",
    # per-phase step profile + buffer-arena counters (PR 10): flat keys like
    # profile_forward_seconds / arena_misses / workspace_peak_bytes
    "profile_",
    "arena_",
    "workspace_",
)


def discover_bench_files(directory: Path) -> list[Path]:
    """Every ``BENCH_*.json`` in ``directory``, pipeline order then name.

    Files named in :data:`BENCH_FILES` keep their pipeline position; any
    other match (a future benchmark module's file) sorts alphabetically
    after them, so nothing needs registering to appear in the report.
    """
    known = {name: index for index, name in enumerate(BENCH_FILES)}
    paths = [path for path in directory.glob("BENCH_*.json") if path.is_file()]
    return sorted(paths, key=lambda p: (known.get(p.name, len(known)), p.name))


def _is_metric(key: str, value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and any(marker in key for marker in METRIC_MARKERS)
    )


def _format(value: float) -> str:
    return f"{value:,.2f}" if abs(value) < 100 else f"{value:,.0f}"


def _delta(latest: float, previous: float) -> str:
    if previous == 0:
        return "n/a"
    change = (latest - previous) / abs(previous) * 100.0
    return f"{change:+.1f}%"


def trajectories(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """Per ``(benchmark, metric)`` value series, in recorded order."""
    series: dict[tuple[str, str], list[float]] = {}
    for record in records:
        name = str(record.get("benchmark", "?"))
        for key, value in record.items():
            if _is_metric(key, value):
                series.setdefault((name, key), []).append(float(value))
    return series


def report_file(path: Path) -> list[str]:
    """Markdown lines summarising one ``BENCH_*.json`` file."""
    lines = [f"## {path.name}", ""]
    if not path.exists():  # tolerated for direct report_file() callers
        lines.append("_no measurements recorded yet_")
        lines.append("")
        return lines
    try:
        records = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        lines.append(f"_unreadable: {error}_")
        lines.append("")
        return lines
    series = trajectories(records)
    if not series:
        lines.append("_no headline metrics found_")
        lines.append("")
        return lines
    lines.append("| benchmark | metric | first | latest | vs prev | overall |")
    lines.append("|---|---|---:|---:|---:|---:|")
    for (name, metric), values in sorted(series.items()):
        first, latest = values[0], values[-1]
        previous = values[-2] if len(values) > 1 else first
        overall = f"{latest / first:.2f}x" if first else "n/a"
        lines.append(
            f"| {name} | {metric} | {_format(first)} | {_format(latest)} "
            f"| {_delta(latest, previous)} | {overall} |"
        )
    lines.append("")
    return lines


def build_report(directory: Path) -> str:
    """The full markdown report over every discovered measurement file."""
    lines = ["# Measured performance trajectory", ""]
    paths = discover_bench_files(directory)
    if not paths:
        lines.append(f"_no BENCH_*.json measurement files in {directory}_")
        lines.append("")
    for path in paths:
        lines.extend(report_file(path))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarise the BENCH_*.json throughput trajectories."
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=Path(__file__).resolve().parents[3],
        help="directory holding the BENCH_*.json files (default: repo root)",
    )
    args = parser.parse_args(argv)
    print(build_report(args.dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
