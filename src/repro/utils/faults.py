"""Deterministic fault injection for chaos testing.

Production code calls :func:`fault_point` at named *injection sites* (dotted
names such as ``producer.step`` or ``checkpoint.write``).  When no plan is
armed the call is two module-global reads — cheap enough to leave in hot
paths.  When a :class:`FaultPlan` is armed, each process counts invocations
per site, and the call raises :class:`InjectedFault` exactly on the chosen
``(site, invocation_index)`` pairs.

Plans propagate to spawned children through the ``REPRO_FAULT_PLAN``
environment variable: :func:`arm` exports the plan, and the first
:func:`fault_point` call in a child lazily imports it.  Invocation counters
are per *process*, so a respawned worker would replay the same indices and
re-fire the same fault forever; passing ``scratch_dir`` makes every fault a
one-shot **fuse** — the firing process atomically claims a marker file, and
a claimed fault never fires again in any process.  Crash/recovery tests
should always use a fuse directory.

Injection sites currently wired in:

========================  ====================================================
``producer.step``         pipelined producer, start of one ``produce`` step
``worker.reduce``         gradient worker, before packing gradients
``server.worker``         serving worker thread, per dequeued batch
``corpus.read_shard``     ``ShardedCorpus`` shard file open
``checkpoint.write``      atomic writer, after tmp write / before rename
========================  ====================================================
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import threading

#: environment variable carrying an armed plan to spawned children
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: dotted names of the injection sites wired into the codebase (used by
#: :meth:`FaultPlan.sample`; :func:`fault_point` accepts any string)
KNOWN_SITES = (
    "producer.step",
    "worker.reduce",
    "server.worker",
    "corpus.read_shard",
    "checkpoint.write",
)


class InjectedFault(RuntimeError):
    """Raised by :func:`fault_point` when the armed plan selects this call.

    Distinguishable from organic failures so chaos tests can assert the
    recovery path was exercised by *injected* faults and nothing else.
    """

    def __init__(self, site: str, index: int):
        super().__init__(f"injected fault at {site}#{index}")
        self.site = site
        self.index = index


class FaultPlan:
    """A set of ``(site, invocation_index)`` pairs to fail, plus a fuse dir.

    ``faults`` is any iterable of ``(site, index)`` pairs.  ``scratch_dir``
    (optional, strongly recommended for multi-process sites) points at an
    existing directory used for one-shot fuse files.
    """

    def __init__(self, faults, scratch_dir: str | os.PathLike | None = None):
        self.faults: dict[str, frozenset[int]] = {}
        staged: dict[str, set[int]] = {}
        for site, index in faults:
            staged.setdefault(str(site), set()).add(int(index))
        for site, indices in staged.items():
            self.faults[site] = frozenset(indices)
        self.scratch_dir = None if scratch_dir is None else os.fspath(scratch_dir)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = sorted((s, i) for s, ix in self.faults.items() for i in ix)
        return f"FaultPlan({pairs!r}, scratch_dir={self.scratch_dir!r})"

    def pairs(self) -> list[tuple[str, int]]:
        """The planned faults as a sorted list of ``(site, index)`` pairs."""
        return sorted((s, i) for s, ix in self.faults.items() for i in ix)

    def to_env(self) -> str:
        """Serialise for the ``REPRO_FAULT_PLAN`` environment variable."""
        return json.dumps(
            {
                "faults": {site: sorted(ix) for site, ix in sorted(self.faults.items())},
                "scratch_dir": self.scratch_dir,
            }
        )

    @classmethod
    def from_env(cls, raw: str) -> "FaultPlan":
        spec = json.loads(raw)
        pairs = [
            (site, index)
            for site, indices in spec.get("faults", {}).items()
            for index in indices
        ]
        return cls(pairs, scratch_dir=spec.get("scratch_dir"))

    @classmethod
    def sample(
        cls,
        sites,
        *,
        seed: int,
        n_faults: int = 1,
        max_index: int = 3,
        scratch_dir: str | os.PathLike | None = None,
    ) -> "FaultPlan":
        """A seeded random plan over ``sites`` (for the chaos stress workflow).

        Draws ``n_faults`` distinct ``(site, index)`` pairs with
        ``index < max_index`` from ``random.Random(seed)``, so a failing seed
        reported by CI reproduces the exact same plan locally.
        """
        sites = list(sites)
        if not sites:
            raise ValueError("sample() needs at least one site")
        rng = random.Random(seed)
        universe = [(site, index) for site in sites for index in range(max_index)]
        n_faults = min(int(n_faults), len(universe))
        return cls(rng.sample(universe, n_faults), scratch_dir=scratch_dir)


# -- module state ------------------------------------------------------------
# Fast path: ``fault_point`` returns after two global reads when no plan is
# armed and the environment has already been checked once.

_plan: FaultPlan | None = None
_env_checked = False
_lock = threading.Lock()
_counters: dict[str, int] = {}


def _claim_fuse(scratch_dir: str, site: str, index: int) -> bool:
    """Atomically claim the one-shot fuse for ``(site, index)``.

    Returns ``True`` exactly once across every process sharing the scratch
    dir — O_CREAT|O_EXCL is the arbiter.
    """
    path = os.path.join(scratch_dir, f"{site}@{index}.fuse")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def fault_point(site: str) -> None:
    """Raise :class:`InjectedFault` iff the armed plan selects this call."""
    global _plan, _env_checked
    if _plan is None:
        if _env_checked:
            return
        with _lock:
            if not _env_checked:
                raw = os.environ.get(PLAN_ENV_VAR)
                if raw:
                    _plan = FaultPlan.from_env(raw)
                _env_checked = True
        if _plan is None:
            return
    plan = _plan
    with _lock:
        index = _counters.get(site, 0)
        _counters[site] = index + 1
    indices = plan.faults.get(site)
    if indices is None or index not in indices:
        return
    if plan.scratch_dir is not None and not _claim_fuse(plan.scratch_dir, site, index):
        return
    raise InjectedFault(site, index)


def invocation_count(site: str) -> int:
    """How many times ``site`` has been reached in *this* process."""
    with _lock:
        return _counters.get(site, 0)


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process and export it for spawned children."""
    global _plan, _env_checked
    with _lock:
        _plan = plan
        _env_checked = True
        _counters.clear()
    os.environ[PLAN_ENV_VAR] = plan.to_env()


def disarm() -> None:
    """Drop any armed plan and stop exporting it to children."""
    global _plan, _env_checked
    with _lock:
        _plan = None
        _env_checked = True
        _counters.clear()
    os.environ.pop(PLAN_ENV_VAR, None)


@contextlib.contextmanager
def armed(plan: FaultPlan):
    """``with armed(plan): ...`` — arm for the block, always disarm after."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()
