"""The benchmark's workloads, each one pass through topoideal's public API.

Workloads (why each was chosen is also recorded in BENCHMARK.json):

* sets5 -- the set suite t1,t2,t3,tt6,tt42 over all 222,144 spaces on
  5 points.  SpaceAnalysis tables (star_t: 7.1 M local_function calls)
  dominate; no map code runs.
* maps3-refute -- the map suite tt1,tt2,tt3,tt4,tt7,tt41,tt43,grt1 on
  3 points without hypotheses: 181,656 map structures and 97,602
  violations, then every kept witness replayed.  The only workload that
  builds and replays sweep witnesses.
* pairs3 -- tt5 on 3 points, 28,719,036 map pairs: the composition loop.
* search -- a seed-drawn batch of find_counterexample claims: registry
  theorems restated as claims (exhaust their scope, no witness) and the
  separations of scripts/find_separations.py (a witness that replays).

The sweeps are exhaustive over fixed inputs, so only `search` uses the
seed.  Every pass is checked against expected.json, recorded with
record.py: a sweep report must hash to its recorded digest, a search
claim must give its recorded answer, and every witness must replay
through the definitional route.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

SWEEPS = {
    "sets5": dict(bound=5, selection="t1,t2,t3,tt6,tt42", hypothesis=None,
                  unit_key="spaces"),
    "maps3-refute": dict(bound=3, selection="tt1,tt2,tt3,tt4,tt7,tt41,tt43,grt1",
                         hypothesis="none", unit_key="map_structures"),
    "pairs3": dict(bound=3, selection="tt5", hypothesis=None,
                   unit_key="map_pairs_checked"),
}
WORKLOADS = (*SWEEPS, "search")

# Search pool.  Each exhausting group pairs two claims of about the same
# cost and a batch takes one claim per group, so the batch cost barely
# depends on the seed.  Witnessing claims are found on 1-2 points and
# cost almost nothing; a batch takes two of each scope.
EXHAUSTING_GROUPS = (
    (("i_open & !pre_i_open", "sets", 4),                         # t1
     ("pre_i_open & i_locally_closed & !open", "sets", 4)),       # tt42.bwd
    (("pre_i_open & !preopen", "sets", 4),                        # t3
     ("hayashi_samuels & open & !(pre_i_open & i_locally_closed)", "sets", 4)),  # tt42.fwd
    (("i_continuous & !(pre_i_continuous & star_i_continuous)", "maps", 3),      # tt7.fwd
     ("pre_i_continuous & star_i_continuous & !i_continuous", "maps", 3)),       # tt7.bwd
    (("hayashi_samuels & continuous & !(pre_i_continuous & i_lc_continuous)", "maps", 3),  # tt43.fwd
     ("pre_i_continuous & i_lc_continuous & !continuous", "maps", 3)),           # tt43.bwd
)
WITNESSING = {
    "sets": (
        ("preopen & !pre_i_open", "sets", 2),
        ("open & !i_open", "sets", 4),
        ("i_open & !open", "sets", 4),
        ("open & !(pre_i_open & i_locally_closed)", "sets", 4),            # tt42.fwd, no hypothesis
    ),
    "maps": (
        ("pre_i_continuous & !i_continuous", "maps", 4),
        ("star_i_continuous & !pre_i_continuous", "maps", 3),
        ("pre_i_continuous & !star_i_continuous", "maps", 3),
        ("continuous & !(pre_i_continuous & i_lc_continuous)", "maps", 3),  # tt43.fwd, no hypothesis
    ),
}
WITNESSING_PER_SCOPE = 2


def claim_key(claim: tuple[str, str, int]) -> str:
    text, scope, bound = claim
    return f"{scope}@{bound}: {text}"


def search_pool() -> list[tuple[str, str, int]]:
    pool = [c for group in EXHAUSTING_GROUPS for c in group]
    return pool + [c for scope in ("sets", "maps") for c in WITNESSING[scope]]


def search_batch(seed: int) -> list[tuple[str, str, int]]:
    """The seed's batch: one claim per exhausting group, two witnessing
    claims per scope, in a seed-chosen order."""
    rng = random.Random(seed)
    batch = [rng.choice(group) for group in EXHAUSTING_GROUPS]
    for scope in ("sets", "maps"):
        batch += rng.sample(WITNESSING[scope], WITNESSING_PER_SCOPE)
    rng.shuffle(batch)
    return batch


# carrier sizes whose topologies/ideals and maps each workload enumerates
ENUMERATED = {
    "sets5": ((5,), ()),
    "maps3-refute": ((3,), (3,)),
    "pairs3": ((3,), (3,)),
    "search": ((1, 2, 3, 4), (1, 2, 3)),
}


def warm(topoideal, workload: str) -> None:
    """The set-up users pay: fill the enumeration caches the workload uses."""
    spaces, maps = ENUMERATED[workload]
    for n in spaces:
        topoideal.topologies(n)
        topoideal.ideals(n)
    for n in maps:
        topoideal.maps(n, n)


def witness_json(w) -> str:
    return json.dumps(w.as_dict(), sort_keys=True)


def answers_json(result) -> dict:
    return {k: None if w is None else witness_json(w) for k, w in result.answers.items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    units: int                      # spaces / map structures / map pairs / claims
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str | None = None       # sweeps: sha256 of Report.to_json()
    report: object = None           # sweeps: the Report
    answers: dict = field(default_factory=dict)   # search: claim key -> witness or None
    replayed: list = field(default_factory=list)  # (witness, replay_witness result)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check_replays(result: PassResult) -> None:
    for w, ok in result.replayed:
        result.check(ok, f"witness does not replay: {witness_json(w)}")


def check_sweep(result: PassResult, expected: dict) -> None:
    """Check one sweep pass: report digest, and every witness replayed."""
    result.check(result.digest == expected["sha256"],
                 f"report digest {result.digest} != recorded {expected['sha256']}")
    check_replays(result)


def check_search(result: PassResult, expected: dict) -> None:
    """Check one search pass: each answer is the recorded one, and replayed."""
    for key, w in result.answers.items():
        want = expected[key]
        got = None if w is None else json.loads(witness_json(w))
        result.check(got == want, f"{key}: answer {got} != recorded {want}")
    check_replays(result)


def replay_all(witnesses, tracer) -> list:
    from topoideal.verify import replay_witness

    out = []
    for w in witnesses:
        with tracer.span("verify.replay_witness"):
            out.append((w, replay_witness(w)))
    return out


def _clock():
    return time.perf_counter(), time.process_time()


def run_sweep(workload: str, tracer) -> PassResult:
    """One pass: the suite, its report in both CLI forms, every witness replayed."""
    from topoideal.cli import format_witness
    from topoideal.verify import run_theorem_suite

    spec = SWEEPS[workload]
    wall0, cpu0 = _clock()
    with tracer.span("verify.run_theorem_suite"):
        report = run_theorem_suite(spec["bound"], spec["selection"],
                                   hypothesis=spec["hypothesis"], allow_large=True)
    with tracer.span("cli.report"):
        text = report.to_json()
        shown = [format_witness(w) for w in report.violations]
    tracer.count("cli.report_bytes",
                 len(text.encode()) + sum(len(s.encode()) for s in shown))
    replayed = replay_all(report.violations, tracer)
    wall1, cpu1 = _clock()
    return PassResult(wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0,
                      units=dict(report.scope_counts)[spec["unit_key"]],
                      digest=digest(text), report=report, replayed=replayed)


def run_search(batch, tracer) -> PassResult:
    """One pass: each claim searched, its witness shown and replayed."""
    from topoideal.cli import format_witness
    from topoideal.verify import find_counterexample

    answers, replayed = {}, []
    wall0, cpu0 = _clock()
    for claim in batch:
        text, scope, bound = claim
        with tracer.span("verify.find_counterexample"):
            w = find_counterexample(text, scope, bound)
        answers[claim_key(claim)] = w
        if w is not None:
            with tracer.span("cli.report"):
                shown = format_witness(w)
            tracer.count("cli.report_bytes", len(shown.encode()))
            replayed += replay_all([w], tracer)
    wall1, cpu1 = _clock()
    return PassResult(wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0,
                      units=len(batch), answers=answers, replayed=replayed)


def run_pass(workload: str, seed: int, tracer) -> PassResult:
    if workload == "search":
        return run_search(search_batch(seed), tracer)
    return run_sweep(workload, tracer)


def check_pass(workload: str, result: PassResult, expected: dict) -> None:
    if workload == "search":
        check_search(result, expected["search"])
    else:
        check_sweep(result, expected["sweeps"][workload])
