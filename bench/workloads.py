"""The three benchmark workloads.

Each workload prepares its inputs from the seed in ``__init__`` (this is
part of set-up) and then runs any number of passes.  A pass calls semikit
only through its public entry points (``semikit.cli.main`` with
``--format structured``, or the ``semikit`` package namespace), times each
operation, and checks every output against pinned or label-invariant
expectations.  An operation fails on a nonzero exit, an exception, or a
mismatched output; failures are counted, never raised.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

import semikit
from semikit import cli


class OpLog:
    """Attempted and failed operations, stdout bytes per subcommand, and the
    clock that times the operations."""

    def __init__(self):
        self.clock = time.perf_counter
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bytes_out: dict[str, int] = {}

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")


def run_cli(argv: list[str], log: OpLog, stages: dict, stage: str):
    """One CLI call, timed into ``stages[stage]``; returns (rc, stdout)."""
    buf = io.StringIO()
    start = log.clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--format", "structured", *argv])
    except Exception as exc:  # counted as a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    stages[stage] = stages.get(stage, 0.0) + log.clock() - start
    out = buf.getvalue()
    log.bytes_out[argv[0]] = log.bytes_out.get(argv[0], 0) + len(out.encode())
    return rc, out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(label, rc, out, log: OpLog, check) -> None:
    """Record one CLI operation: rc must be 0 and ``check(out)`` None."""
    if rc != 0:
        log.record(label, f"exit {rc}")
        return
    try:
        error = check(out)
    except (ValueError, KeyError, TypeError) as exc:
        error = f"unparseable output: {exc}"
    log.record(label, error)


def expect(actual, expected, what: str):
    return None if actual == expected else f"{what}: got {actual!r}, expected {expected!r}"


class CensusVerify:
    """``semikit census --max-order 4`` then ``semikit verify`` on the result.

    Thousands of calls on tables of order <= 4: enumeration, canonical
    form, per-call overhead and repeated derivation dominate.  The census is
    exhaustive, so the seed is not used.
    """

    # OEIS A023814: semigroups of order n up to isomorphism, opposites kept apart.
    COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}
    FINGERPRINT = "f4b1549c1141d2602cc0e5c8b2399c4785e9479621853a27d0b7243c94525d6e"
    VERIFY_SUMMARY = {"pass": 3052, "fail": 0}
    VERIFY_SHA256 = "35fe8eca1d37b3b2b1d65bd2eb92de7faef8b12bbf2c00ecaa54882fc643d67f"
    STAGES = (("census_s", "build"), ("verify_s", "query"))

    def __init__(self, seed: int, workdir: str):
        self.corpus = os.path.join(workdir, "census4")

    def run_pass(self, log: OpLog) -> dict[str, float]:
        shutil.rmtree(self.corpus, ignore_errors=True)
        stages: dict[str, float] = {}
        rc, out = run_cli(["census", "--max-order", "4", "-o", self.corpus], log, stages, "census_s")
        check_cli("census", rc, out, log, self._check_census)
        rc, out = run_cli(["verify", "--corpus", self.corpus], log, stages, "verify_s")
        check_cli("verify", rc, out, log, self._check_verify)
        return stages

    def _check_census(self, out: str):
        doc = json.loads(out)
        counts = collections.Counter(
            int(f.split("-")[1]) for f in os.listdir(self.corpus) if f.endswith(".sg"))
        return (expect(dict(counts), self.COUNTS, "per-order counts")
                or expect(doc["count"], sum(self.COUNTS.values()), "count")
                or expect(doc["fingerprint"], self.FINGERPRINT, "fingerprint"))

    def _check_verify(self, out: str):
        return (expect(json.loads(out)["summary"], self.VERIFY_SUMMARY, "summary")
                or expect(sha256(out), self.VERIFY_SHA256, "sha256"))


class TransformStructure:
    """Green's structure and kernel of large transformation semigroups.

    ``gen transformation:6,3,0`` (order 560) then ``greens`` and ``kernel``;
    ``gen transformation:6,4,0`` (order 838) then ``greens`` only, since its
    kernel takes about 21 s.  Each generated table is relabelled by a
    permutation drawn from the seed (seed 0 is the identity).  Seed 0 must
    reproduce the pinned output digests; every seed must reproduce the
    label-invariant summaries.
    """

    # descriptor -> (order, {command: sha256 at seed 0}, invariants)
    INSTANCES = {
        "transformation:6,3,0": (560, {
            "greens": "da205559d1a83642cf1249ebc36da2a33d90371ed7d63004d86ed243219b42b7",
            "kernel": "1679d62d6e2247adb138e0614d293b481312bf8ca1eb2f00a7a2ae6b91c1cb4a",
        }, {
            "l": {2: 1, 4: 1, 6: 1, 20: 13, 36: 8},
            "r": {1: 6, 2: 1, 4: 1, 26: 10, 48: 6},
            "j": {2: 1, 4: 1, 6: 1, 260: 1, 288: 1},
            "h": {1: 6, 2: 131, 4: 1, 6: 48},
            "d": {2: 1, 4: 1, 6: 1, 260: 1, 288: 1},
            "kernel": 6, "kernel_idempotents": 6,
        }),
        "transformation:6,4,0": (838, {
            "greens": "27b9f1abf83d77a40707f1151f51fbfd18e10feee38aec02da42f0b17b249da3",
        }, {
            "l": {2: 1, 4: 1, 6: 1, 26: 14, 42: 11},
            "r": {1: 6, 2: 1, 4: 1, 28: 13, 66: 7},
            "j": {2: 1, 4: 1, 6: 1, 364: 1, 462: 1},
            "h": {1: 6, 2: 183, 4: 1, 6: 77},
            "d": {2: 1, 4: 1, 6: 1, 364: 1, 462: 1},
        }),
    }
    STAGES = (("gen_s", "build"), ("greens_s", "query"), ("kernel_s", "query"))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.perms = {}
        for k, (desc, (order, _, _)) in enumerate(self.INSTANCES.items()):
            if seed == 0:
                self.perms[desc] = np.arange(order)
            else:
                self.perms[desc] = np.random.default_rng([seed, k]).permutation(order)

    def run_pass(self, log: OpLog) -> dict[str, float]:
        stages: dict[str, float] = {}
        for k, (desc, (order, digests, invariants)) in enumerate(self.INSTANCES.items()):
            path = os.path.join(self.workdir, f"t{k}.sg")
            rc, out = run_cli(["gen", desc, "-o", path], log, stages, "gen_s")
            check_cli(f"gen {desc}", rc, out, log,
                      lambda out: expect(json.loads(out)["order"], order, "order"))
            if rc != 0:
                continue
            relabel(path, self.perms[desc])
            for command in digests:
                rc, out = run_cli([command, path], log, stages, f"{command}_s")
                check = functools.partial(self._check, command, digests, invariants)
                check_cli(f"{command} {desc}", rc, out, log, check)
        return stages

    def _check(self, command, digests, invariants, out: str):
        doc = json.loads(out)
        if command == "greens":
            for kind in "lrjhd":
                sizes = collections.Counter(len(c) for c in doc[f"{kind}_classes"])
                error = expect(dict(sorted(sizes.items())), invariants[kind], f"{kind}-class sizes")
                if error:
                    return error
            error = expect(len(doc["eggbox"]), sum(invariants["d"].values()), "D-class count")
        else:
            error = (expect(len(doc["kernel"]), invariants["kernel"], "|K|")
                     or expect(len(doc["kernel_idempotents"]), invariants["kernel_idempotents"], "|E(K)|"))
        if error is None and self.seed == 0:
            error = expect(sha256(out), digests[command], "sha256")
        return error


def relabel(path: str, perm: np.ndarray) -> None:
    """Rewrite a .sg file with element a renamed perm[a]."""
    with open(path) as fh:
        header, n, body = fh.read().split("\n", 2)
    n = int(n)
    table = np.array(body.split(), dtype=np.int64).reshape(n, n)
    inv = np.argsort(perm)
    relabelled = perm[table[np.ix_(inv, inv)]]
    rows = "\n".join(" ".join(map(str, row)) for row in relabelled.tolist())
    with open(path, "w") as fh:
        fh.write(f"{header}\n{n}\n{rows}\n")


class ReesRoundtrip:
    """The Rees round-trip grid of acceptance criterion 3.

    6 groups x |I| in {1,2,3} x |Lambda| in {1,2,3} x 2 sandwich seeds = 108
    completely simple semigroups of order <= 54, each built by
    ``gen_random_rees`` and decomposed at every idempotent.  Every
    semigroup is new, so nothing computed for one can be reused for another;
    ``greens_structure`` is never called.
    """

    GROUPS = ("trivial", "z2", "z3", "z4", "z2xz2", "s3")
    STAGES = (("construct_s", "build"), ("decompose_s", "query"))

    def __init__(self, seed: int, workdir: str):
        sandwich_seeds = (2 * seed + 1, 2 * seed + 2)
        self.grid = [(g, i, lam, s) for g in self.GROUPS for i in (1, 2, 3)
                     for lam in (1, 2, 3) for s in sandwich_seeds]

    def run_pass(self, log: OpLog) -> dict[str, float]:
        stages = {"construct_s": 0.0, "decompose_s": 0.0}
        for group, i_size, lam, seed in self.grid:
            label = f"rees {group} {i_size}x{lam} seed {seed}"
            t0 = log.clock()
            t1 = None
            try:
                S = semikit.gen_random_rees(i_size, lam, group, seed).realized
                t1 = log.clock()
                error = self._roundtrip(S)
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            t2 = log.clock()
            t1 = t2 if t1 is None else t1
            stages["construct_s"] += t1 - t0
            stages["decompose_s"] += t2 - t1
            log.record(label, error)
        return stages

    @staticmethod
    def _roundtrip(S):
        decs = [semikit.rees_decompose(S, e) for e in semikit.idempotents(S).members]
        n = S.order
        for dec in decs:
            if not dec.phi.is_isomorphism:
                return f"phi at e={dec.e} is not an isomorphism"
            if any(dec.phi(dec.psi(x)) != x for x in range(n)):
                return f"phi o psi != id at e={dec.e}"
            if any(dec.psi(dec.phi(x)) != x for x in range(n)):
                return f"psi o phi != id at e={dec.e}"
        for other in decs[1:]:
            if not other.psi.compose(decs[0].phi).is_isomorphism:
                return f"base points {decs[0].e} and {other.e} disagree"
        return None


WORKLOADS = {
    "census_verify": CensusVerify,
    "transform_structure": TransformStructure,
    "rees_roundtrip": ReesRoundtrip,
}
