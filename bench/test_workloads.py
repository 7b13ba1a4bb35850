"""Self-test of the benchmark's workload generator (no qclass import needed)."""

import math

import pytest

import workloads as wl


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_configs(name):
    make = wl.WORKLOADS[name]
    assert make(5) == make(5)
    assert make(5) != make(6)


def _counts(calls):
    counts = {}
    for call in calls:
        counts[call.tag] = counts.get(call.tag, 0) + 1
    return counts


def test_closed_form_slice_shares():
    calls = wl.closed_form(3)
    counts = _counts(calls)
    assert counts == wl.CLOSED_FORM_SLICES
    assert len(calls) == 600
    assert counts["generic"] / 600 == 0.50
    assert counts["trivial"] / 600 == 0.20
    assert (counts["parallel"] + counts["antiparallel"]) / 600 == 0.30


def test_near_parallel_probe_shares():
    calls = wl.near_parallel(3)
    assert calls == wl.near_parallel(3) and calls != wl.near_parallel(4)
    assert _counts(calls) == {tag: wl.NEAR_PARALLEL_PER_ANGLE for tag in wl.NEAR_PARALLEL_ANGLES}


def test_closed_form_slices_are_what_they_claim():
    for call in wl.closed_form(4) + wl.near_parallel(4):
        p = call.config["problem"]
        r, s, pi0 = p["r0"], p["s0"], p["pi0"]
        assert all(0.0 < math.hypot(*v) < 1.0 for v in (r, s)) and 0.0 < pi0 < 1.0
        angle = wl.angle_between(r, s)
        if call.tag == "trivial":
            assert wl.is_trivial(r, s, pi0)
            continue
        assert wl.is_nontrivial(r, s, pi0)
        if call.tag == "generic":
            assert 0.01 < angle < math.pi - 0.01
        elif call.tag == "parallel":
            assert angle < 1e-14
        elif call.tag == "antiparallel":
            assert math.pi - angle < 1e-14
        else:
            eps = wl.NEAR_PARALLEL_ANGLES[call.tag]
            off = min(angle, math.pi - angle)
            assert off == pytest.approx(eps, rel=1e-2), (call.tag, off)


def test_simulation_workloads_match_their_documented_shape():
    (small,) = wl.qubit_small_n(1)
    assert small.config["trials"] > 65_536 and small.workers == 1
    assert small.config["n_list"] == [100] and small.config["label_mode"] == "random"
    assert small.config["known_priors"] is False
    (large,) = wl.qubit_large_n(1)
    assert min(large.config["n_list"]) >= 10_000 and large.config["trials"] <= 65_536
    assert large.workers == 1 and large.config["label_mode"] == "fixed"
    assert large.config["known_priors"] is True
    for call in wl.gaussian_limit(1):
        assert call.config["strategy"] == wl.GAUSSIAN_STRATEGIES
        assert call.config["trials"] >= 4 * 65_536 and call.workers == 1
        p = call.config["problem"]
        assert wl.is_nontrivial(p["r0"], p["s0"], p["pi0"])
