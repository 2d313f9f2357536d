"""The claim search's answers are a contract: for each claim of the
benchmark's search pool, at its bound, `find_counterexample` returns the
same witness, or None, byte for byte.

The pool restates registry theorems as claims, each exhausting its scope
(no witness), and adds separations that a witness on 1-4 points refutes.
The digests are the sha256 of `json.dumps(w.as_dict())` (of `null` when
the scope is exhausted), recorded before the search ran as a claim law.
"""

import hashlib
import json

import pytest

from topoideal.verify import find_counterexample, replay_witness

EXHAUSTED = hashlib.sha256(b"null").hexdigest()

POOL = [
    # registry theorems as claims: each exhausts its scope
    ("i_open & !pre_i_open", "sets", 4, EXHAUSTED),
    ("pre_i_open & i_locally_closed & !open", "sets", 4, EXHAUSTED),
    ("pre_i_open & !preopen", "sets", 4, EXHAUSTED),
    ("hayashi_samuels & open & !(pre_i_open & i_locally_closed)", "sets", 4, EXHAUSTED),
    ("i_continuous & !(pre_i_continuous & star_i_continuous)", "maps", 3, EXHAUSTED),
    ("pre_i_continuous & star_i_continuous & !i_continuous", "maps", 3, EXHAUSTED),
    ("hayashi_samuels & continuous & !(pre_i_continuous & i_lc_continuous)", "maps", 3,
     EXHAUSTED),
    ("pre_i_continuous & i_lc_continuous & !continuous", "maps", 3, EXHAUSTED),
    # separations: each has a witness
    ("preopen & !pre_i_open", "sets", 2,
     "a61267f033f10c5ac2db4459333a696b1aa28aa68b2eed701395d61dd6449186"),
    ("open & !i_open", "sets", 4,
     "095303da1d7c57f44ee0e11569564ce3308b4892e1c39c89074f8e6af324b678"),
    ("i_open & !open", "sets", 4,
     "0cae0eb329aa43f952e70a3a368d1faafe312eea269fd33de00e7f27b8489e68"),
    ("open & !(pre_i_open & i_locally_closed)", "sets", 4,
     "df12f9b35436c313db42322d8caaa86ae295b74c9daeaf7e7b4d2d083f733540"),
    ("pre_i_continuous & !i_continuous", "maps", 4,
     "5d8e70ef412bb9970dad2cc76740760a469a5959b4c64e98e8a56c181b2ac154"),
    ("star_i_continuous & !pre_i_continuous", "maps", 3,
     "42bbd6f6e3c5c61a4525108bcf8fc520754c50a41e35bf7a0535c030d14139f8"),
    ("pre_i_continuous & !star_i_continuous", "maps", 3,
     "17d5c8e05b5ccc3bc94ca9ffacc24b057dcc943a43155397d4fd09c7991fc3dc"),
    ("continuous & !(pre_i_continuous & i_lc_continuous)", "maps", 3,
     "fd57d8cbd5afcccd1a71d8c101e31cf8d555d912276bba9316982ce07425a5fe"),
]


@pytest.mark.parametrize("claim,scope,bound,digest", POOL,
                         ids=[f"{scope}@{bound}: {claim}" for claim, scope, bound, _ in POOL])
def test_search_answer_is_pinned_and_replays(claim, scope, bound, digest):
    w = find_counterexample(claim, scope, bound)
    answer = None if w is None else w.as_dict()
    assert hashlib.sha256(json.dumps(answer).encode()).hexdigest() == digest
    assert w is None or replay_witness(w)
