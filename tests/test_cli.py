"""End-to-end command line runs, exercised in process through main()."""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireflynet.cli import RUN_KEYS, SWEEPABLE, main
from fireflynet.dynamics import save_matrix_csv
from fireflynet.patterns import Pattern, gaussian_2d, save_image, save_pattern_csv
from fireflynet.trainer import CONFIG_KEY_HELP


SMALL = ["--set", "n=9", "--set", "rows=3", "--set", "cols=3", "--set", "epochs=1"]


def write_patterns(dirpath, count=2):
    dirpath.mkdir(parents=True, exist_ok=True)
    centers = [(1.0, 1.0), (1.5, 1.5), (0.5, 1.5)]
    for k in range(count):
        cx, cy = centers[k % len(centers)]
        save_pattern_csv(gaussian_2d(3, 3, cx, cy, 1.0, 1.0), dirpath / f"p{k}.csv")


def train_small_model(tmp_path):
    pats = tmp_path / "pats"
    write_patterns(pats)
    model_dir = tmp_path / "model"
    code = main(["train", "--patterns", str(pats), "--out", str(model_dir), *SMALL])
    assert code == 0
    return model_dir


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_a_complete_model(tmp_path, capsys):
    model_dir = train_small_model(tmp_path)
    for name in ("w_matrix.csv", "config.cfg", "training_summary.csv", "trace_final.csv"):
        assert (model_dir / name).exists()
    assert sorted(p.name for p in (model_dir / "templates").iterdir()) == [
        "t0_p0.csv",
        "t1_p1.csv",
    ]
    out = capsys.readouterr().out
    assert "trained on 2 patterns" in out
    summary = (model_dir / "training_summary.csv").read_text().splitlines()
    assert summary[0] == "presentation,steps,converged,final_max_rhs"
    assert len(summary) == 3


def test_train_requires_an_output_directory(tmp_path, capsys):
    pats = tmp_path / "pats"
    write_patterns(pats)
    assert main(["train", "--patterns", str(pats), *SMALL]) == 2
    assert "train requires the out key or --out" in capsys.readouterr().err


def test_train_rejects_missing_or_empty_pattern_dirs(tmp_path, capsys):
    out = tmp_path / "model"
    assert main(["train", "--patterns", str(tmp_path / "nowhere"), "--out", str(out), *SMALL]) == 3
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--patterns", str(empty), "--out", str(out), *SMALL]) == 3
    err = capsys.readouterr().err
    assert "data error" in err


def test_train_rejects_a_pattern_file_name_that_is_not_utf8(tmp_path, capsys):
    # the file stem becomes a template label, saved as part of a file name
    pats = tmp_path / "pats"
    write_patterns(pats)
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), pats / os.fsdecode(b"a\xff.csv"))
    out = tmp_path / "m"
    assert main(["train", "--patterns", str(pats), "--out", str(out), *SMALL]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "a\\udcff.csv" in err
    assert not out.exists()


def test_train_rejects_two_pattern_files_with_one_stem(tmp_path, capsys):
    # the stem is the template label, and a model keeps one template per label
    pats = tmp_path / "pats"
    pats.mkdir()
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), pats / "a.csv")
    save_image(gaussian_2d(3, 3, 1.5, 1.5, 1.0, 1.0), pats / "a.pgm")
    out = tmp_path / "m"
    assert main(["train", "--patterns", str(pats), "--out", str(out), *SMALL]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert str(pats / "a.csv") in err and str(pats / "a.pgm") in err
    assert not out.exists()


def test_train_rejects_patterns_of_the_wrong_size(tmp_path):
    pats = tmp_path / "pats"
    pats.mkdir()
    save_pattern_csv(Pattern(np.ones(4), grid=(2, 2)), pats / "tiny.csv")
    code = main(["train", "--patterns", str(pats), "--out", str(tmp_path / "m"), *SMALL])
    assert code == 3


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------

def test_recall_round_trip(tmp_path, capsys):
    model_dir = train_small_model(tmp_path)
    cue = tmp_path / "cue.csv"
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), cue)
    out = tmp_path / "recall"
    code = main(["recall", "--model", str(model_dir), "--cue", str(cue), "--out", str(out)])
    assert code == 0
    assert (out / "pattern_output.csv").exists()
    assert (out / "pattern_output.pgm").exists()
    report = (out / "report.txt").read_text()
    assert "cosine = " in report and "best_match_label = " in report
    assert "cosine = " in capsys.readouterr().out


def test_recall_accepts_config_overrides(tmp_path):
    # the run keys recall reads can come from --set as well as from flags
    model_dir = train_small_model(tmp_path)
    cue = tmp_path / "cue.csv"
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), cue)
    out = tmp_path / "recall2"
    code = main(["recall", "--set", f"model_dir={model_dir}", "--set", f"cue={cue}", "--set", f"out={out}"])
    assert code == 0
    assert (out / "report.txt").exists()


def test_recall_rejects_an_override_that_changes_the_network_size(tmp_path, capsys):
    model_dir = train_small_model(tmp_path)
    cue = tmp_path / "cue.csv"
    save_pattern_csv(Pattern(np.ones(4), grid=(2, 2)), cue)
    out = tmp_path / "r"
    resize = ["--set", "n=4", "--set", "rows=2", "--set", "cols=2"]
    code = main(["recall", "--model", str(model_dir), "--cue", str(cue), "--out", str(out), *resize])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: recall takes no model keys, the saved model fixes them: cols, n, rows\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("override", [["--set", "epochs=5"], ["--seed", "1"]], ids=["set", "seed-flag"])
def test_recall_rejects_model_keys_and_writes_nothing(tmp_path, capsys, override):
    # no model key changes what recall computes, so none is taken
    model_dir = train_small_model(tmp_path)
    cue = tmp_path / "cue.csv"
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), cue)
    out = tmp_path / "r"
    assert main(["recall", "--model", str(model_dir), "--cue", str(cue), "--out", str(out), *override]) == 2
    named = "epochs" if override[0] == "--set" else "master_seed"
    err = capsys.readouterr().err
    assert err == f"config error: recall takes no model keys, the saved model fixes them: {named}\n"
    assert not out.exists()


def write_model(model_dir, w):
    """A saved model that holds only its size and its weights."""
    model_dir.mkdir()
    (model_dir / "config.cfg").write_text(f"n = {len(w)}\n")
    save_matrix_csv(w, model_dir / "w_matrix.csv")


@pytest.mark.parametrize(
    "w, warned",
    [
        # max absolute row sum 2 (the old, row-sum warning fired), but nilpotent: rho = 0
        (np.array([[0.0, 2.0, 0.0, 0.0], *np.zeros((3, 4))]), False),
        (0.6 * (np.ones((4, 4)) - np.eye(4)), True),  # rho = 3 * 0.6
    ],
    ids=["rho-0", "rho-1.8"],
)
def test_recall_warns_when_the_spectral_radius_reaches_one(tmp_path, capsys, w, warned):
    write_model(tmp_path / "model", w)
    cue = tmp_path / "cue.csv"
    cue.write_text("1,4\n1,0.5,0,0\n")
    assert main(["recall", "--model", str(tmp_path / "model"), "--cue", str(cue), "--out", str(tmp_path / "r")]) == 0
    err = capsys.readouterr().err
    expected = "warning: spectral radius of W is 1.800 >= 1; the three-hop response approximates no equilibrium\n"
    assert err == (expected if warned else "")


def test_train_warns_only_when_the_trained_spectral_radius_reaches_one(tmp_path, capsys):
    model_dir = train_small_model(tmp_path)
    w = np.loadtxt(model_dir / "w_matrix.csv", delimiter=",", skiprows=1)
    assert np.abs(np.linalg.eigvals(w)).max() < 1.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, args, unread",
    [
        ("train", ["--patterns", "pats", *SMALL, "--set", "seeds=1", "--set", "cue=c.csv"], "cue, seeds"),
        ("recall", ["--model", "m", "--cue", "c.csv", "--set", "seeds=5", "--set", "experiment=digits", "--jobs", "4"],
         "experiment, jobs, seeds"),
        ("experiment", ["evolve1d", "--set", "n=12", "--jobs", "2", "--set", "patterns_dir=pats"], "jobs, patterns_dir"),
        ("sweep", ["--set", "experiment=evolve1d", "--set", "n=12", "--set", "sweep.alpha=0.01", "--set", "model_dir=m"],
         "model_dir"),
    ],
    ids=["train", "recall", "experiment", "sweep"],
)
def test_a_run_key_the_command_does_not_read_is_a_config_error(tmp_path, monkeypatch, capsys, command, args, unread):
    # such a key could change nothing, so it is refused rather than ignored
    write_patterns(tmp_path / "pats")
    write_model(tmp_path / "m", np.zeros((9, 9)))
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), tmp_path / "c.csv")
    monkeypatch.chdir(tmp_path)
    assert main([command, *args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {command} does not read the run keys: {unread}\n"
    assert not (tmp_path / "x").exists()


# One working run of each command, every key given by --set: inputs that
# write_run_inputs makes, outputs under out/, all relative to the run's root.
WORKING_RUNS = {
    "train": {"patterns_dir": "pats", "n": "9", "rows": "3", "cols": "3", "epochs": "1", "out": "out"},
    "recall": {"model_dir": "m", "cue": "c.csv", "out": "out"},
    "experiment": {"experiment": "evolve1d", "n": "12", "seeds": "0", "out": "out"},
    "sweep": {"experiment": "evolve1d", "n": "12", "sweep.alpha": "0.01", "seeds": "0", "jobs": "1", "out": "out"},
}


def write_run_inputs(root):
    write_patterns(root / "pats")
    write_model(root / "m", 0.1 * (np.ones((9, 9)) - np.eye(9)))
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), root / "c.csv")


def files_under(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run_in(root, monkeypatch, command, kv, flags=()):
    """Run the command in a fresh root of inputs; return its code and the root's files."""
    write_run_inputs(root)
    monkeypatch.chdir(root)
    code = main([command, *flags, *(f"--set={key}={value}" for key, value in kv.items())])
    return code, files_under(root)


@pytest.mark.parametrize(
    "key, command",
    [(key, command) for key, row in RUN_KEYS.items() for command in WORKING_RUNS
     if command in row.required_by or row.flag and (command in row.read_by or command == "train")],
)
def test_each_run_key_is_one_key_by_flag_or_by_set(tmp_path, monkeypatch, capsys, key, command):
    row = RUN_KEYS[key]
    write_run_inputs(tmp_path / "inputs")
    inputs = files_under(tmp_path / "inputs")
    if command not in row.read_by:  # train --cue c.csv is refused as --set cue=c.csv is
        value = WORKING_RUNS[row.read_by[0]][key]
        code, files = run_in(tmp_path / "unread", monkeypatch, command, WORKING_RUNS[command], [row.flag, value])
        assert (code, files) == (2, inputs)
        assert capsys.readouterr().err == f"config error: {command} does not read the run keys: {key}\n"
        return
    kv = dict(WORKING_RUNS[command])
    value = kv.pop(key)
    by_key = run_in(tmp_path / "key", monkeypatch, command, {**kv, key: value}), capsys.readouterr().out
    assert by_key[0][0] == 0 and by_key[0][1] != inputs
    if row.flag:
        by_flag = run_in(tmp_path / "flag", monkeypatch, command, kv, [row.flag, value]), capsys.readouterr().out
        assert by_flag == by_key
    if command in row.required_by:
        assert run_in(tmp_path / "missing", monkeypatch, command, kv) == (2, inputs)
        assert capsys.readouterr().err.startswith(f"config error: {command} requires the {key} key")


def test_recall_reports_broken_cue_files(tmp_path, capsys):
    model_dir = train_small_model(tmp_path)
    cue = tmp_path / "cue.csv"
    cue.write_text("")
    code = main(["recall", "--model", str(model_dir), "--cue", str(cue), "--out", str(tmp_path / "r")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and "cue.csv" in err


def test_recall_rejects_a_stored_template_of_the_wrong_length(tmp_path, capsys):
    model_dir = train_small_model(tmp_path)
    template = model_dir / "templates" / "t0_p0.csv"
    save_pattern_csv(Pattern(np.ones(4), grid=(2, 2)), template)
    cue = tmp_path / "cue.csv"
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), cue)
    out = tmp_path / "r"
    code = main(["recall", "--model", str(model_dir), "--cue", str(cue), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: template ") and str(template) in err and "n=9" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def swarm_model(tmp_path_factory):
    """A small trained model that has every saved file, population.csv too."""
    root = tmp_path_factory.mktemp("swarm")
    write_patterns(root / "pats")
    args = ["train", "--patterns", str(root / "pats"), "--out", str(root / "model")]
    assert main([*args, *SMALL, "--set", "use_firefly=true"]) == 0
    save_pattern_csv(gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0), root / "cue.csv")
    (root / "run.cfg").write_text("cue = cue.csv\n")  # a run key recall reads; --cue overrides it
    return root


RECALL_INPUTS = ["cue.csv", "run.cfg"] + [
    f"model/{name}"
    for name in ("config.cfg", "w_matrix.csv", "population.csv", "templates/t0_p0.csv")
]


@st.composite
def damaged_bytes(draw, original: bytes) -> bytes:
    """Arbitrary bytes, or the original with a few short splices; splices
    stay short so that most of a file still parses and the damage reaches
    the checks past its first line."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data[at : at + cut] = draw(st.binary(max_size=3))
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recall_on_damaged_input_files_exits_with_a_documented_code(swarm_model, tmp_path_factory, data):
    run = tmp_path_factory.mktemp("damaged")
    shutil.copytree(swarm_model / "model", run / "model")
    shutil.copy(swarm_model / "cue.csv", run / "cue.csv")
    shutil.copy(swarm_model / "run.cfg", run / "run.cfg")
    target = run / data.draw(st.sampled_from(RECALL_INPUTS))
    target.write_bytes(data.draw(damaged_bytes(target.read_bytes())))
    args = ["recall", "--config", str(run / "run.cfg"), "--model", str(run / "model")]
    assert main([*args, "--cue", str(run / "cue.csv"), "--out", str(run / "out")]) in (0, 2, 3)


def test_undecodable_input_files_are_data_errors(tmp_path, swarm_model, capsys):
    # each message names the file, so a user with many inputs can find it
    pats = tmp_path / "pats"
    write_patterns(pats)
    (pats / "p1.csv").write_bytes(b"3,3\n\xff\xfe\n")
    assert main(["train", "--patterns", str(pats), "--out", str(tmp_path / "m"), *SMALL]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(pats / "p1.csv") in err
    config = tmp_path / "run.cfg"
    config.write_bytes(b"epochs = \xe9\n")
    write_patterns(tmp_path / "good")
    args = ["train", "--patterns", str(tmp_path / "good"), "--out", str(tmp_path / "m2")]
    assert main([*args, "--config", str(config), *SMALL]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(config) in err
    # the cue, the --config file and each file of a saved model
    for k, name in enumerate(RECALL_INPUTS):
        run = tmp_path / f"recall{k}"
        shutil.copytree(swarm_model, run)
        bad = run / name
        bad.write_bytes(b"\xff" + bad.read_bytes())
        args = ["recall", "--config", str(run / "run.cfg"), "--model", str(run / "model")]
        assert main([*args, "--cue", str(run / "cue.csv"), "--out", str(run / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err


def test_a_saved_agent_off_the_square_is_a_data_error(tmp_path, swarm_model, capsys):
    # caught where the file is read, not one train later as non-finite weights
    run = tmp_path / "run"
    shutil.copytree(swarm_model, run)
    population = run / "model" / "population.csv"
    population.write_text(population.read_text() + "nan,7.5,E,inf\n")
    args = ["recall", "--model", str(run / "model"), "--cue", str(run / "cue.csv")]
    assert main([*args, "--out", str(run / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(population) in err and "nan,7.5,E,inf" in err
    assert "Traceback" not in err
    assert not (run / "out").exists()


def with_retired_lines(config_text: str, recall_iterations: str = "1") -> str:
    """A grid swarm model's config.cfg as saved while all twelve retired
    keys existed, each echoed after the surviving key before it."""
    after = {
        "cols": ["boundary = open"],
        "use_firefly": ["learn_schedule = onset", "theta_act = 0.1"],
        "epochs": ["topology_mix = 0.3", f"recall_iterations = {recall_iterations}", "init_sigma_cells = 1.5"],
        "swarm_steps": [
            "excit_fraction = 0.7",
            "population_factor = 1.0",
            "reset_per_pattern = false",
            "kernel_pitches = 1.5",
            "inhib_pitches = 3.0",
            "inhibition_gain = 1.0",
        ],
    }
    lines = []
    for line in config_text.splitlines():
        lines.append(line)
        lines += after.get(line.split(" = ", 1)[0], [])
    assert len(lines) == len(config_text.splitlines()) + 12  # every anchor was found
    return "\n".join(lines) + "\n"


def test_a_model_saved_with_the_retired_keys_recalls_to_the_same_bytes(tmp_path, swarm_model, capsys):
    old = tmp_path / "old"
    shutil.copytree(swarm_model / "model", old)
    saved = (old / "config.cfg").read_text()
    (old / "config.cfg").write_text(with_retired_lines(saved))
    cue = ["--cue", str(swarm_model / "cue.csv")]
    outs = [tmp_path / "new_out", tmp_path / "old_out"]
    for model, out in zip((swarm_model / "model", old), outs):
        assert main(["recall", "--model", str(model), *cue, "--out", str(out)]) == 0
    for name in ("pattern_output.csv", "pattern_output.pgm", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # any other value asked for a behaviour that no longer exists
    (old / "config.cfg").write_text(with_retired_lines(saved, recall_iterations="2"))
    capsys.readouterr()
    out = tmp_path / "r"
    assert main(["recall", "--model", str(old), *cue, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: recall_iterations was removed; a saved model can only hold recall_iterations = 1\n"
    )
    assert not out.exists()


def test_a_saved_nonzero_diagonal_entry_is_a_data_error(tmp_path, swarm_model, capsys):
    # load_model checks the diagonal it reads instead of zeroing it; a signed zero is still zero
    model = tmp_path / "model"
    shutil.copytree(swarm_model / "model", model)
    weights = model / "w_matrix.csv"
    lines = weights.read_text().splitlines()
    row = lines[2].split(",")  # cell 1's row, after the size line
    assert row[1] == "0"
    cue = ["--cue", str(swarm_model / "cue.csv")]
    for entry, code in (("-0", 0), ("1e-300", 3)):
        lines[2] = ",".join([row[0], entry, *row[2:]])
        weights.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"r{code}"
        assert main(["recall", "--model", str(model), *cue, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert capsys.readouterr().err.endswith("data error: weight matrix diagonal must be exactly zero\n")


@pytest.mark.parametrize(
    "raised, line",
    [
        (MemoryError("no memory for the fixed points of 9 weight rows"),
         "out of memory: no memory for the fixed points of 9 weight rows\n"),
        (MemoryError(), "out of memory: an allocation failed\n"),  # Python's own carry no message
    ],
)
def test_a_run_out_of_memory_exits_5_with_one_line(tmp_path, monkeypatch, capsys, raised, line):
    def no_memory(*args):
        raise raised

    pats = tmp_path / "pats"
    write_patterns(pats)
    monkeypatch.setattr("fireflynet.trainer.row_fixed_points", no_memory)  # every presentation's solve
    assert main(["train", "--patterns", str(pats), "--out", str(tmp_path / "model"), *SMALL]) == 5
    assert capsys.readouterr().err == line


def test_recall_of_a_wiped_out_response_writes_a_black_raster(tmp_path, capsys):
    # cell 1 excites cell 0 and cell 0 inhibits cell 1: the series
    # D = I + W + W^2 + W^3 cancels to zero on both, so the response to a
    # cue there is the zero pattern, which recall returns with cosine 0
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    (model_dir / "config.cfg").write_text("n = 4\n")
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = 1.0, -1.0
    save_matrix_csv(w, model_dir / "w_matrix.csv")
    cue = tmp_path / "cue.csv"
    cue.write_text("1,4\n1,0.5,0,0\n")
    out = tmp_path / "r"
    assert main(["recall", "--model", str(model_dir), "--cue", str(cue), "--out", str(out)]) == 0
    assert "cosine = 0.0\n" in (out / "report.txt").read_text()
    assert (out / "pattern_output.pgm").read_bytes() == b"P5\n4 1\n255\n" + bytes(4)
    assert "Traceback" not in capsys.readouterr().err


def test_recall_requires_model_and_cue(tmp_path, capsys):
    assert main(["recall", "--out", str(tmp_path / "r")]) == 2
    assert "recall requires" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_writes_artifacts_and_echo(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", "evolve1d", "--set", "n=25", "--out", str(out), "--seed", "0"])
    assert code == 0
    for name in (
        "w_matrix_initial.csv",
        "w_matrix_final.csv",
        "weight_row_12.csv",
        "config_echo.cfg",
        "report.txt",
        "metrics.csv",
    ):
        assert (out / name).exists()
    assert "experiment = evolve1d" in capsys.readouterr().out
    assert "n = 25" in (out / "config_echo.cfg").read_text()


def test_experiment_runs_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["experiment", "evolve1d", "--set", "n=25", "--out", str(out), "--seed", "3"])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_experiment_rejects_unknown_names_and_keys(tmp_path, capsys):
    assert main(["experiment", "teleport", "--set", "n=25", "--out", str(tmp_path / "x")]) == 2
    assert main(["experiment", "evolve1d", "--set", "warp=9", "--out", str(tmp_path / "y")]) == 2
    # the step is derived from each tensor; there is no fixed one to set
    assert main(["experiment", "evolve1d", "--set", "n=25", "--set", "dt=0.011", "--out", str(tmp_path / "z")]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err and "unknown config key 'warp'" in err and "unknown config key 'dt'" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("learn_schedule", "onset"),
        ("recall_iterations", "1"),
        ("reset_per_pattern", "false"),
        ("boundary", "open"),
        ("hand_wired_neighbors", "3"),
        ("theta_act", "0.1"),
        ("topology_mix", "0.3"),
        ("init_sigma_cells", "1.5"),
        ("excit_fraction", "0.7"),
        ("population_factor", "1.0"),
        ("kernel_pitches", "1.5"),
        ("inhib_pitches", "3.0"),
        ("inhibition_gain", "1.0"),
    ],
)
def test_retired_keys_are_unknown_to_set_and_config(tmp_path, capsys, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    for given in (["--set", f"{key}={value}"], ["--config", str(config)]):
        out = tmp_path / "x"
        assert main(["experiment", "evolve1d", "--set", "n=12", *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: unknown config key {key!r}\n"
        assert not out.exists()


DENOISE_5X5 = ["--set", "n=25", "--set", "rows=5", "--set", "cols=5"]


@pytest.mark.parametrize(
    "args, named",
    [
        (["experiment", "denoise", *DENOISE_5X5, "--set", "seeds=-1"], "seeds must be >= 0, got -1"),
        (["experiment", "denoise", *DENOISE_5X5, "--set", "seeds=0,-2"], "seeds must be >= 0, got -2"),
        (["experiment", "denoise", *DENOISE_5X5, "--seed", "-1"], "master_seed must be >= 0, got -1"),
        (["experiment", "denoise", *DENOISE_5X5, "--set", "master_seed=-3"], "master_seed must be >= 0, got -3"),
        (["train", *SMALL, "--patterns", "pats", "--set", "master_seed=-1"], "master_seed must be >= 0, got -1"),
        (["sweep", "--set", "experiment=denoise", *DENOISE_5X5, "--set", "sweep.alpha=0.01", "--set", "seeds=-1"],
         "seeds must be >= 0, got -1"),
    ],
    ids=["seeds", "seed-list", "seed-flag", "master_seed", "train", "sweep"],
)
def test_a_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys, args, named):
    write_patterns(tmp_path / "pats")
    monkeypatch.chdir(tmp_path)  # train reads its patterns from ./pats
    assert main([*args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {named}" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", ["tol", "v", "swarm_b"])
def test_non_finite_float_config_values_are_config_errors(tmp_path, capsys, key):
    for raw in ("nan", "inf"):
        args = ["experiment", "evolve1d", "--set", "n=12", "--set", f"{key}={raw}"]
        assert main([*args, "--out", str(tmp_path / raw)]) == 2
        assert f"config error: {key}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / raw).exists()


@pytest.mark.parametrize("command", [["experiment", "recall2d"], ["sweep", "--set", "experiment=recall2d",
                                                                  "--set", "sweep.alpha=0.01"]],
                         ids=["experiment", "sweep"])
def test_seeds_and_seed_count_together_are_a_config_error(tmp_path, capsys, command):
    keys = ["--set", "n=9", "--set", "rows=3", "--set", "cols=3", "--set", "seeds=0", "--set", "seed_count=5"]
    assert main([*command, *keys, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "config error: give the run seeds with seeds or seed_count, not both\n"
    assert not (tmp_path / "x").exists()


def test_experiment_requires_a_name(tmp_path, capsys):
    assert main(["experiment", "--out", str(tmp_path / "x")]) == 2
    assert "experiment requires the experiment key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_args(out, jobs=None):
    args = [
        "sweep",
        "--set",
        "experiment=evolve1d",
        "--set",
        "n=25",
        "--set",
        "sweep.alpha=0.005,0.01,0.02",
        "--set",
        "seeds=0,1,2",
        "--out",
        str(out),
    ]
    if jobs is not None:
        args += ["--jobs", str(jobs)]
    return args


def test_sweep_crosses_parameters_with_seeds(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(sweep_args(out)) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("run,alpha,seed,")
    assert len(lines) == 10
    assert lines[1].startswith("0,0.005,0,")
    assert lines[9].startswith("8,0.02,2,")
    for k in range(9):
        assert (out / f"run_{k:03d}" / "report.txt").exists()
    assert "9 runs" in capsys.readouterr().out


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(sweep_args(serial)) == 0
    assert main(sweep_args(parallel, jobs=2)) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    # a swarm sweep: each worker loads the kernel for itself
    swarm = ["sweep", "--set", "experiment=denoise", "--set", "n=25", "--set", "rows=5", "--set", "cols=5",
             "--set", "use_firefly=true", "--set", "pattern_count=3", "--set", "seeds=0,1"]
    assert main([*swarm, "--out", str(tmp_path / "swarm1"), "--jobs", "1"]) == 0
    assert main([*swarm, "--out", str(tmp_path / "swarm2"), "--jobs", "2"]) == 0
    assert (tmp_path / "swarm1" / "sweep.csv").read_bytes() == (tmp_path / "swarm2" / "sweep.csv").read_bytes()


def test_sweep_rejects_structural_keys(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--set",
            "experiment=evolve1d",
            "--set",
            "sweep.rows=3,4",
            "--out",
            str(tmp_path / "s"),
        ]
    )
    assert code == 2
    assert "cannot sweep" in capsys.readouterr().err
    assert "rows" not in SWEEPABLE
    # the seed axis of a sweep is its seed list, not master_seed
    code = main(
        [
            "sweep",
            "--set",
            "experiment=evolve1d",
            "--set",
            "n=12",
            "--set",
            "sweep.master_seed=5,6",
            "--set",
            "seeds=0",
            "--out",
            str(tmp_path / "m"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot sweep" in err and "seeds" in err
    assert not (tmp_path / "m").exists()


def test_sweep_rejects_an_empty_value_list(tmp_path, capsys):
    args = ["sweep", "--set", "experiment=evolve1d", "--set", "n=12", "--set", "sweep.alpha=,"]
    assert main([*args, "--out", str(tmp_path / "s")]) == 2
    assert "at least one value" in capsys.readouterr().err


def test_sweep_rejects_a_non_integer_jobs_key(tmp_path, capsys):
    args = ["sweep", "--set", "jobs=x", "--set", "experiment=denoise", "--set", "sweep.alpha=0.01"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert "jobs: expected int, got 'x'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    started = []

    class SerialPool:
        """Records the worker count it is asked for and maps in process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    def two_runs(out, jobs):
        return ["sweep", "--set", "experiment=evolve1d", "--set", "n=25", "--set",
                "sweep.alpha=0.005,0.01", "--set", "seeds=0", "--jobs", str(jobs), "--out", str(out)]

    monkeypatch.setattr("fireflynet.cli.ProcessPoolExecutor", SerialPool)
    assert main(two_runs(tmp_path / "many", 1000)) == 0
    assert started == [2]
    assert main(two_runs(tmp_path / "one", 1)) == 0
    assert started == [2]
    assert (tmp_path / "many" / "sweep.csv").read_bytes() == (tmp_path / "one" / "sweep.csv").read_bytes()


def test_sweep_requires_an_experiment(tmp_path, capsys):
    assert main(["sweep", "--set", "n=25", "--out", str(tmp_path / "s")]) == 2
    assert "requires the experiment key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage plumbing
# ---------------------------------------------------------------------------

def test_bad_flags_are_usage_errors(capsys):
    assert main(["experiment", "evolve1d", "--bogus"]) == 1
    assert main([]) == 1
    assert main(["train", "--set", "novalue"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_help_lists_every_config_key(capsys):
    for command in ("train", "recall", "experiment", "sweep"):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for key in CONFIG_KEY_HELP:
            assert key in text
        for key, row in RUN_KEYS.items():
            assert key in text and (row.flag or key) in text
        assert "sweep.<key>" in text
