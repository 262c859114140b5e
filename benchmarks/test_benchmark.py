"""The benchmark's own tests: tracing leaves outputs alone, the checks
reject broken outputs, and the printed metric names match BENCHMARK.json.

Run with `PYTHONPATH=src python -m pytest benchmarks`.
"""

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from fireflynet import trainer
from fireflynet.patterns import gaussian_2d

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _digest(lines):
    return next(line for line in lines if line.startswith("digest "))


def test_traced_and_untraced_runs_agree_and_print_the_named_metrics(tmp_path):
    recall = trainer.recall
    plain, plain_lines = run.run("denoise-5x5", 3, 0.0, False, tmp_path, time.perf_counter())
    traced, traced_lines = run.run("denoise-5x5", 3, 0.0, True, tmp_path, time.perf_counter())
    assert trainer.recall is recall  # the tracer put the originals back
    assert _digest(plain_lines) == _digest(traced_lines)
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == workloads.DenoiseWorkload.digest_ops
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        got = (plain["metrics"] | traced["metrics"])[spec["name"]]
        assert got["unit"] == spec["unit"]
    assert traced["metrics"]["firefly.swarm_step.calls"]["value"] == 15 * 10  # presentations * steps
    assert (tmp_path / "trace-denoise-5x5-seed3.csv").is_file()


@pytest.fixture(scope="module")
def one_op():
    wl = workloads.DenoiseWorkload(seed=5)
    wl.setup(Path("unused"))
    inputs = wl.prepare(0)
    return wl, inputs, wl.op(inputs)


def test_checks_pass_a_real_op(one_op):
    wl, inputs, result = one_op
    assert wl.check(inputs, result) == []


def test_check_rejects_a_weight_above_v(one_op):
    wl, inputs, result = one_op
    broken = copy.deepcopy(result)
    w = broken.model.weights.w
    w[0, 1] = broken.model.config.plasticity.v + 1e-6
    assert any("above v" in f for f in wl.check(inputs, broken))


def test_check_rejects_a_wrong_label(one_op):
    wl, inputs, result = one_op
    broken = copy.deepcopy(result)
    right = broken.recalled[0].label
    broken.recalled[0].label = next(t.label for t in broken.model.templates if t.label != right)
    assert any("best_match_label" in f for f in wl.check(inputs, broken))


def test_check_rejects_a_converged_settle_with_a_close_pair(one_op):
    wl, inputs, result = one_op
    broken = copy.deepcopy(result)
    pop = broken.model.population
    d_min = pop.params.d_min
    step = 0.5 * d_min if pop.positions[0, 0] < 0.5 else -0.5 * d_min
    pop.positions[1] = pop.positions[0] + np.array([step, 0.0])
    pop.settle_converged = True
    assert any("converged settle" in f for f in wl.check(inputs, broken))
    pop.settle_converged = False  # an unconverged settle promises no spacing
    assert wl.check(inputs, broken) == []


def test_digits_run_check_tolerates_a_rare_mislabel_but_not_a_broken_model():
    wl = workloads.DigitsWorkload(seed=0)
    wl.seeds, wl.mislabelling_seeds = 15, 2
    assert wl.run_faults() == []
    wl.mislabelling_seeds = 8
    assert wl.run_faults() != []


def test_tracer_sees_calls_made_through_every_namespace():
    tracer = tracing.Tracer()
    config = trainer.TrainerConfig(n=25, grid=(5, 5), use_firefly=True)
    bump = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0, label="b")
    with tracer.installed():
        tracer.op = 0
        model = trainer.init_model(config)
        trainer.present_pattern(model, bump)
        trainer.complete(model, bump, [0, 1])
    layers = {tracing.NAMES[code] for code in tracer.layer}
    assert layers == set(tracing.NAMES) - {"trainer.save_model", "trainer.load_model"}
