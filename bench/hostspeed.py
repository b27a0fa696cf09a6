"""A clock that runs at the speed of the host, for timing on a shared host.

On a shared VM the same code runs up to about 1.8x slower or faster from one
minute to the next, because of the other tenants.  Process CPU time moves
with wall time there, so it does not help.  ``SpeedClock`` instead samples
the host's speed while the workload runs: a SIGALRM every ``INTERVAL_S``
seconds runs ``reference()``, fixed work that does not depend on semikit,
and times it.  The ratio of that time to ``NOMINAL_S`` is the host's
slowness ``k``.  ``now()`` advances by ``dt / k`` for each stretch of
workload time ``dt``, so a reading is in seconds at the nominal host speed:
a program change that makes a pass 10% slower reads 10% slower whatever the
host is doing.  Time spent in the samples themselves is excluded.

Signal handlers run between bytecodes of the main thread, so a sample never
overlaps the workload; a long C call only delays it.
"""

from __future__ import annotations

import gc
import json
import re
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
# Seconds one reference() call takes on an unloaded 2-vCPU Intel Xeon VM
# with Python 3.11 and numpy; only the scale of the readings depends on it.
NOMINAL_S = 0.006
# Samples whose median gives the slowness, so that one outlier is ignored.
WINDOW = 3

_DOC = {f"k{i}": [i, str(i) * 3, {"x": i / 7, "y": [i, i + 1, i + 2]}] for i in range(150)}
_ROWS = [tuple((i * 7 + j * 13) % 61 for j in range(8)) for i in range(600)]
_PATTERN = re.compile(r"(\d+)-(\w+)")
_N = 28
_TABLE = [[(a * b + 3 * a + 5 * b) % _N for b in range(_N)] for a in range(_N)]
_TINY = np.array([[(a * b + a) % 4 for b in range(4)] for a in range(4)])
_SQUARE = (np.arange(256 * 256, dtype=np.int64) * 7919 % 256).reshape(256, 256)
_LARGE = (np.arange(560 * 560, dtype=np.int64) * 7919 % 560).reshape(560, 560)
_MAPS = (np.arange(400 * 6, dtype=np.int64) * 13 % 6).reshape(400, 6)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def combine(self, other):
        return _Pair(self.a + other.b, self.b ^ other.a)


def _python_objects() -> int:
    """JSON, sorting, dicts of tuples, small objects and a regex."""
    back = json.loads(json.dumps(_DOC))
    groups: dict[int, list] = {}
    for row in sorted(_ROWS, key=lambda r: (r[3], r[0])):
        groups.setdefault(row[1], []).append(row)
    pairs = [_Pair(i, 3 * i) for i in range(300)]
    acc = pairs[0]
    for p in pairs:
        acc = acc.combine(p)
    odd = sum(p.a for p in pairs if p.b % 3)
    cells = frozenset((p.a % 17, p.b % 19) for p in pairs)
    try:
        {}["missing"]
    except KeyError:
        pass
    matches = _PATTERN.findall("12-ab 34-cd 56-ef " * 20)
    return len(back) + sum(map(len, groups.values())) + acc.a + odd + len(cells) + len(matches)


def _table_loop() -> int:
    """Nested Python loops over a list-of-lists multiplication table."""
    t = _TABLE
    count = 0
    for a in range(_N):
        ta = t[a]
        for b in range(0, _N, 2):
            tab = t[ta[b]]
            for c in range(_N):
                if tab[c] == ta[t[b][c]]:
                    count += 1
    return count


def _small_numpy() -> int:
    """Many numpy calls on 4x4 arrays, where per-call overhead dominates."""
    acc = 0
    for _ in range(24):
        p = np.argsort(_TINY[0])
        acc += int(_TINY[np.ix_(p, p)].sum()) + np.unique(_TINY).size
        acc += int((_TINY == _TINY.T).all()) + len(tuple(_TINY.ravel().tolist()))
    return acc


def _large_numpy() -> int:
    """Gathers, unique and argsort on arrays of 0.5 and 2.5 MB."""
    picked = _SQUARE[_SQUARE[:, 3]][:, :64]
    firsts = np.argsort(_SQUARE, axis=1)[:, 0]
    columns = _LARGE[:, ::7].ravel()
    return int(np.unique(picked).size) + int(firsts.sum()) + int(np.unique(columns).size)


def _rows_to_tuples() -> int:
    """Rows of composed maps turned into tuple keys of a dict."""
    index: dict[tuple, int] = {}
    for composed in (_MAPS[_MAPS[7]], _MAPS[:, _MAPS[3]]):
        for row in composed:
            index.setdefault(tuple(int(v) for v in row), len(index))
    return len(index)


def reference() -> int:
    """Fixed work in the mix that semikit's passes do.  Each piece alone
    follows some workloads' slowdowns better than others; together they
    follow all three."""
    return (_python_objects() + _table_loop() + _small_numpy() + _large_numpy()
            + _rows_to_tuples())


def timed_reference() -> float:
    """Seconds one reference() call takes now.  The garbage collector is
    held off, so that the call never pays for scanning the workload's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowness(samples: int = WINDOW) -> float:
    """The host's slowness now, from ``samples`` reference calls."""
    return statistics.median(timed_reference() for _ in range(samples)) / NOMINAL_S


class SpeedClock:
    """Seconds at the nominal host speed, excluding the clock's own samples.

    Use as a context manager; ``now()`` is valid inside it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []  # every sample, in order
        # (normalised seconds up to the last sample, workload time at the
        # last sample, slowness since then, wall seconds spent in samples),
        # replaced whole so that now() never sees half an update.
        self._state = (0.0, 0.0, 1.0, 0.0)
        self._previous = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        norm, mark, k, overhead = self._state
        now = start - overhead
        self.durations.append(timed_reference())
        k_next = statistics.median(self.durations[-WINDOW:]) / NOMINAL_S
        self._state = (norm + (now - mark) / k, now, k_next,
                       overhead + time.perf_counter() - start)

    def __enter__(self) -> "SpeedClock":
        for _ in range(WINDOW):
            self._sample()
        self._state = (0.0, *self._state[1:])
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def workload_time(self) -> float:
        """Wall seconds, less those spent in samples."""
        return time.perf_counter() - self._state[3]

    def now(self) -> float:
        norm, mark, k, overhead = self._state
        return norm + (time.perf_counter() - overhead - mark) / k

    def median_slowness(self) -> float:
        return statistics.median(self.durations) / NOMINAL_S
