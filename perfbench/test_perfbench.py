"""Self-tests of the benchmark: its output checks pass on the package as it
is, fail on corrupted output, and tracing leaves the output unchanged.

    python3 -m pytest perfbench            # about 30 s
    python3 -m pytest perfbench -m slow    # the 5-point and pair sweeps too
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracing import NullTracer, Tracer, instrument

run.load_package()


@pytest.fixture(scope="module")
def expected():
    return wl.load_expected()


@pytest.fixture(scope="module")
def maps3_passes():
    """One untraced and one traced maps3-refute pass, with the tracer."""
    base = wl.run_sweep("maps3-refute", NullTracer())
    tracer = Tracer()
    with instrument(tracer):
        traced = wl.run_sweep("maps3-refute", tracer)
    return base, traced, tracer


def test_tracer_self_time_excludes_child_spans():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tracer = Tracer()
    tracer.clock = lambda: next(ticks)
    child = tracer.wrap(lambda: None, "child")
    with tracer.span("outer"):
        child()
    assert tracer.total_s("outer") == 10.0
    assert tracer.self_s("outer") == 7.0
    assert tracer.total_s("child") == 3.0
    assert tracer.spans == [(0, "outer", 0.0, 10.0, None)]


def test_instrument_restores_the_package():
    import topoideal.analysis
    import topoideal.verify

    before = (topoideal.verify.SpaceAnalysis, topoideal.verify.Witness,
              topoideal.analysis.local_function, topoideal.verify._claims)
    with instrument(Tracer()):
        assert topoideal.verify.SpaceAnalysis is not before[0]
    after = (topoideal.verify.SpaceAnalysis, topoideal.verify.Witness,
             topoideal.analysis.local_function, topoideal.verify._claims)
    assert after == before


def test_sweep_digest_matches_untraced_and_traced(maps3_passes, expected):
    base, traced, _ = maps3_passes
    for result in (base, traced):
        wl.check_pass("maps3-refute", result, expected)
        assert result.failed == 0, result.problems
    assert traced.digest == base.digest == expected["sweeps"]["maps3-refute"]["sha256"]


def test_traced_counts_are_exact(maps3_passes):
    base, traced, tracer = maps3_passes
    assert traced.units == 181_656
    assert sum(r.violation_count for r in traced.report.results) == 97_602
    assert tracer.counts["verify.witnesses_built"] == 97_602
    assert len(traced.report.violations) == 50
    assert tracer.calls("verify.replay_witness") == 50
    assert tracer.calls("analysis.space_build") == 232
    assert tracer.counts["maps.map_classes"] > 0


def test_corrupted_report_is_a_failure(maps3_passes, expected):
    base, _, _ = maps3_passes
    report = base.report
    first = dataclasses.replace(report.results[0],
                                violation_count=report.results[0].violation_count + 1)
    bad_report = dataclasses.replace(report, results=(first, *report.results[1:]))
    bad = dataclasses.replace(base, attempted=0, failed=0, problems=[],
                              report=bad_report, digest=wl.digest(bad_report.to_json()))
    wl.check_pass("maps3-refute", bad, expected)
    assert bad.failed == 1 and "digest" in bad.problems[0]


def test_corrupted_witness_is_a_failure(maps3_passes, expected):
    base, _, _ = maps3_passes
    witness = next(w for w in base.report.violations if w.check_id == "tt41")
    # every continuous map is pre-I-continuous (tt1 holds), so this claim is false
    corrupted = dataclasses.replace(witness, check_id="tt1")
    bad = dataclasses.replace(base, attempted=0, failed=0, problems=[],
                              replayed=wl.replay_all([corrupted], NullTracer()))
    wl.check_pass("maps3-refute", bad, expected)
    assert bad.failed == 1 and "replay" in bad.problems[0]


def test_search_batches_cover_both_answers_in_both_scopes(expected):
    batches = set()
    for seed in range(200):
        batch = wl.search_batch(seed)
        kinds = {(scope, expected["search"][wl.claim_key((text, scope, bound))] is None)
                 for text, scope, bound in batch}
        assert kinds == {("sets", True), ("sets", False), ("maps", True), ("maps", False)}
        batches.add(tuple(batch))
    assert len(batches) > 100
    assert wl.search_batch(7) == wl.search_batch(7)


def test_search_answers_match_and_a_wrong_answer_fails(expected):
    result = wl.run_pass("search", 3, NullTracer())
    wl.check_pass("search", result, expected)
    assert result.failed == 0, result.problems
    exhausted = next(k for k, w in result.answers.items() if w is None)
    found = next(w for w in result.answers.values() if w is not None)
    wrong = dataclasses.replace(result, attempted=0, failed=0, problems=[],
                                answers={**result.answers, exhausted: found})
    wl.check_pass("search", wrong, expected)
    assert wrong.failed == 1


def test_setup_probe_times_a_fresh_process():
    assert 0 < run.probe_setup("maps3-refute") < run.PROBE_TIMEOUT_S


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["sets5", "pairs3"])
def test_large_sweep_digests_match(workload, expected):
    result = wl.run_sweep(workload, NullTracer())
    wl.check_pass(workload, result, expected)
    assert result.failed == 0, result.problems
