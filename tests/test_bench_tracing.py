"""The benchmark's trace (``bench/tracing.py``) replaces peakcheck attributes
by name and reads counts from their results; a renamed or removed attribute,
or a result that no longer gives the count, must fail here, not in a traced
run."""

import importlib.util
import random
from pathlib import Path

from conftest import placement_rows, random_total, random_weak, reference_place
from peakcheck.gadgets import random_sp_profile
from peakcheck.guided import guided_recognize
from peakcheck.model import PreferenceOrder, Profile

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_targets_exist():
    tracing = _tracing()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _placements(profile, guiding, pinned=False):
    # the count the trace takes from a guided call, positional as the
    # dispatcher calls it and with pinned= as the unguided engine does
    verdict = guided_recognize(profile, guiding, pinned=pinned)
    kwargs = {"pinned": True} if pinned else {}
    return _tracing()._guided_placements((profile, guiding), kwargs, verdict), verdict


def test_trace_counts_guided_placements_from_the_verdict():
    # guided.placements is read from the last word of the refusal's detail:
    # a change of the refusal text must show here
    rng = random.Random(26)
    for _ in range(200):  # a blocked explicit run that stops past step 2
        m = 8
        votes = [random_weak(m, rng) for _ in range(4)]
        guiding = random_total(m, rng)
        profile = Profile(m, (guiding, *votes))
        blocked = reference_place(placement_rows(profile, guiding), False)[1]
        if blocked is not None and blocked > 2:
            break
    else:
        raise AssertionError("no run blocked past step 2 was drawn")
    count, verdict = _placements(profile, guiding)
    assert verdict.certificate.reason == "both axis sides blocked"
    assert count == blocked

    # a pinned run whose step 1 is blocked at the left end counts 0
    guiding = PreferenceOrder.from_total([0, 1, 2, 3])
    both_above = PreferenceOrder.from_ranks([1, 1, 0, 0])
    count, verdict = _placements(Profile(4, (guiding, both_above)), guiding, pinned=True)
    assert verdict.certificate.reason == "pinned-left candidate blocked at the left end"
    assert count == 0

    # a yes counts every candidate: weak orders and a total vote drawn on
    # one hidden axis
    votes = random_sp_profile(40, 5, "psp", 0.5, seed=3).votes
    guiding = random_sp_profile(40, 1, "psp", 0.0, seed=3).votes[0]
    count, verdict = _placements(Profile(40, (guiding, *votes[1:])), guiding)
    assert verdict.consistent
    assert count == 40
