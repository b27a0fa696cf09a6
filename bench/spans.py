"""Span recorder that wraps semikit's public functions from outside.

Installing a Tracer replaces every public function of the layer modules,
wherever it is bound in a ``semikit.*`` namespace, and every entry of
``corpus.CHECKS`` with a wrapper that records a span (name, start, end,
parent).  Spans stay in memory; per-layer numbers are computed from them
when a pass ends.  Nothing is patched unless a Tracer is installed, so the
untraced run executes the library unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import time

LAYERS = ("core", "greens", "ideals", "simple", "corpus", "cli")

# Functions whose argument tables are hashed to measure repeated work.
HASHED = ("greens.greens_structure", "ideals.kernel_members")

# (span name, metrics) reported per pass; see BENCHMARK.json for the
# end-to-end metric each one should move.
FUNCTION_METRICS = (
    ("core.associativity_witness", ("calls", "self_s")),
    ("core.loads_sg", ("self_s",)),
    ("core.dumps_sg", ("self_s",)),
    ("core.closure", ("calls", "self_s")),
    ("core.subsemigroup_table", ("calls", "self_s")),
    ("greens.greens_structure", ("calls", "self_s", "distinct_frac")),
    ("greens.greens_restriction_check", ("calls", "self_s")),
    ("ideals.kernel_members", ("calls", "self_s", "distinct_frac")),
    ("ideals.kernel", ("calls", "self_s")),
    ("ideals.minimal_ideal_equivalences", ("calls", "self_s")),
    ("ideals.idempotent_poset", ("calls", "self_s")),
    ("simple.is_simple", ("self_s",)),
    ("simple.is_completely_simple", ("calls",)),
    ("simple.rees_construct", ("self_s",)),
    ("simple.rees_decompose", ("calls", "self_s")),
    ("simple.enumerate_subsemigroups", ("calls", "self_s")),
    ("corpus.canonical_form", ("calls", "self_s")),
    ("corpus.gen_transformation_closure", ("self_s",)),
    ("corpus.gen_random_rees", ("self_s",)),
)

CLI_SUBCOMMANDS = ("census", "verify", "gen", "greens", "kernel")

_UNIT = {"calls": "count", "self_s": "s", "distinct_frac": "ratio"}


def check_names():
    from semikit import corpus

    return tuple(name for name, _ in corpus.CHECKS)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name, kinds in FUNCTION_METRICS:
        for kind in kinds:
            units[f"{name}.{kind}"] = _UNIT[kind]
    units["corpus.census.kept_frac"] = "ratio"
    for check in check_names():
        units[f"verify.{check}.self_s"] = "s"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.bytes_out"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans of wrapped semikit calls for one or more passes."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.digests: list[tuple | None] = []
        self.census_kept = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        import semikit  # noqa: F401  (loads every layer module)
        from semikit import corpus

        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "semikit" or k.startswith("semikit."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"semikit.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        checks = tuple((name, self._wrap(f"verify.{name}", fn))
                       for name, fn in corpus.CHECKS)
        self._patch(corpus, "CHECKS", checks)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _patch(self, ns, attr, value) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def _wrap(self, name: str, fn):
        hashed = name in HASHED
        is_census = name == "corpus.census"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            digest = None
            if hashed:
                table = args[0].table
                digest = (table.shape, hashlib.blake2b(table.tobytes()).digest())
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.digests.append(digest)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if is_census:
                self.census_kept += len(result)
            return result

        return wrapper

    # -- analysis -----------------------------------------------------

    def reset(self) -> None:
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.digests.clear()
        self.census_kept = 0

    def dump(self, path) -> None:
        """Write the spans as tab-separated (name, start, end, parent)."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("\t".join(str(v) for v in row) + "\n")

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def layer_metrics(self, bytes_out: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        own = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        distinct: dict[str, set] = {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            if self.digests[i] is not None:
                distinct.setdefault(name, set()).add(self.digests[i])
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((
                t for n, t in self_s.items()
                if n.startswith(layer + ".") or (layer == "corpus" and n.startswith("verify."))), 0.0
            )
        for name, kinds in FUNCTION_METRICS:
            n_calls = calls.get(name, 0)
            for kind in kinds:
                if kind == "calls":
                    out[f"{name}.calls"] = n_calls
                elif kind == "self_s":
                    out[f"{name}.self_s"] = self_s.get(name, 0.0)
                else:
                    out[f"{name}.distinct_frac"] = (
                        len(distinct.get(name, ())) / n_calls if n_calls else 0.0)
        labelled = sum(1 for i, n in enumerate(self.names)
                       if n == "corpus.canonical_form" and self._under(i, "corpus.census"))
        out["corpus.census.kept_frac"] = self.census_kept / labelled if labelled else 0.0
        for check in check_names():
            out[f"verify.{check}.self_s"] = self_s.get(f"verify.{check}", 0.0)
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.bytes_out"] = bytes_out.get(sub, 0)
        return out

    def _under(self, index: int, ancestor: str) -> bool:
        p = self.parents[index]
        while p >= 0:
            if self.names[p] == ancestor:
                return True
            p = self.parents[p]
        return False


def merge_passes(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
