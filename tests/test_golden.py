"""Byte identity of the fuzzy stages and the replay trace.

The digests pin the exact floating-point output of both rule bases over a
grid of inputs and the CSV of the shipped 1200-tick replay.  A change to
the inference engine that reorders any arithmetic shows up here before it
shows up in a sweep.
"""

import hashlib
from importlib import resources

from fearsim.configio import load_scenario_config
from fearsim.emotion import EmotionInputs, compute_likelihood, fear_potential
from fearsim.sim import run_scenario, trace_to_csv


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_likelihood_grid_digest():
    grid = [i / 100 for i in range(101)]
    text = "\n".join(repr(compute_likelihood(d, s)) for d in grid for s in grid)
    assert sha256(text) == "9a9f8e210f2bbb3d825910f74d48f29cc9626ff6a07f59eff80e39eba5799980"


def test_fear_grid_digest():
    grid = [i / 20 for i in range(21)]
    text = "\n".join(
        repr(fear_potential(EmotionInputs(u, l, g))) for u in grid for l in grid for g in grid
    )
    assert sha256(text) == "afbd3935969e2cb88393c6b521ee5c2cc981c6bff76db2a092c6e7a74cb0d09b"


def test_replay_trace_digest():
    text = resources.files("fearsim.data").joinpath("replay_close_gap_low_speed.cfg").read_text(encoding="utf-8")
    csv = trace_to_csv(run_scenario(load_scenario_config(text)))
    assert sha256(csv) == "8a0ad18aa020d74f19293da27e817bbf6d2e62ef03f764a65c133afca5c27baf"
