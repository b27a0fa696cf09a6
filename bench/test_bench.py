"""Self-test of the benchmark runner: ``python3 -m pytest -q bench/test_bench.py``."""

import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_semikit()

import hostspeed  # noqa: E402
import semikit  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_corrupted_digest_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.CensusVerify, "VERIFY_SHA256", "0" * 64)
    log = workloads.OpLog()
    workloads.CensusVerify(0, str(tmp_path)).run_pass(log)
    assert (log.attempted, log.failed) == (2, 1)
    assert log.errors[0].startswith("verify: sha256")


def test_tracer_counts_calls_and_restores_library():
    original = semikit.greens_structure
    S = semikit.gen_standard("t2")
    tracer = spans.Tracer()
    tracer.install()
    try:
        semikit.greens_structure(S)
        semikit.greens.greens_structure(S)
    finally:
        tracer.uninstall()
    assert semikit.greens_structure is original
    metrics = tracer.layer_metrics({})
    assert metrics["greens.greens_structure.calls"] == 2
    assert metrics["greens.greens_structure.distinct_frac"] == 0.5
    assert all(t >= 0 for t in tracer.self_times())


def test_speed_clock_samples_the_host_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedClock(interval=0.05) as clock:
        start, wall = clock.now(), clock.workload_time()
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
        elapsed, wall = clock.now() - start, clock.workload_time() - wall
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.durations) > hostspeed.WINDOW + 3
    # The samples' own time is left out of the workload's time.
    assert 0 < wall < 0.5
    k = clock.median_slowness()
    assert 0.5 * wall / k < elapsed < 2 * wall / k
