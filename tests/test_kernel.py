"""The C kernel: its module's entry points and their checks, its build cache, and a host without a compiler."""

import datetime
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from fireflynet import kernel
from fireflynet.errors import CompilerError
from fireflynet.firefly import FireflyPopulation, GridLayout, SwarmParams, swarm_step
from fireflynet.patterns import Pattern, gaussian_2d, save_pattern_csv

# a non-static definition in kernel.c: result type, name, parameters (over several lines)
DEFINITION = re.compile(r"^(?!static\b)(\w[\w ]*?[ *]+)(\w+)\(([^)]*)\)\s*\{", re.M)


def test_the_module_exposes_exactly_the_entry_points_kernel_c_defines():
    definitions = set(DEFINITION.findall(kernel.SOURCE.read_text()))
    entry_points = {name for _, name, _ in definitions} - {"PyInit_kernel"}
    assert entry_points == {"swarm_move", "swarm_settle", "row_fixed_points", "euler_step", "synthesize"}
    assert {name for name in dir(kernel.load_kernel()) if not name.startswith("__")} == entry_points


def entry_point_calls(generator: np.random.Generator) -> dict[str, tuple[list, set[int], set[int]]]:
    """For each entry point: arguments it accepts, with a 3-agent swarm on a
    2x2 grid and 3x3 weights, the positions of the arrays it writes, and of
    those it only reads.  The capsule points into generator, which the caller
    keeps alive."""
    rng = generator.bit_generator.capsule
    w, t = np.full((3, 3), 0.1), np.eye(3) + 0.5
    np.fill_diagonal(w, 0.0)
    agents = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.6]])
    return {
        "swarm_move": ([agents, 3, rng, np.empty(3), np.arange(4.0), 2, 2, 0.5, -1.0, 0.1], {0, 3}, {4}),
        "swarm_settle": ([agents, 3, rng, 0.1, 0.11, 5], {0}, set()),
        "row_fixed_points": ([w, t, np.empty((3, 3)), 3, 0.01, 1.0, 0.5, 1e-6], {2}, {0, 1}),
        "euler_step": (
            [w, t, np.empty((3, 3)), np.empty((3, 3)), np.empty(7), 3, 0.01, 1.0, 0.1, 0.5], {2, 3, 4}, {0, 1}
        ),
        "synthesize": ([agents, 3, np.full((4, 3), 0.2), np.zeros((4, 4)), np.empty(4), 2, 2, 0.5], {3, 4}, {0, 2}),
    }


def read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("name", ["swarm_move", "swarm_settle", "row_fixed_points", "euler_step", "synthesize"])
def test_each_entry_point_rejects_arrays_it_cannot_read_or_write_as_the_kernel_would(name):
    entry, generator = getattr(kernel.load_kernel(), name), np.random.default_rng(0)
    arguments, written, read = entry_point_calls(generator)[name]
    entry(*arguments)  # as given, the call is good

    def rejected(at: int, bad) -> None:
        call = [a.copy() if isinstance(a, np.ndarray) else a for a in arguments]
        call[at] = bad
        with pytest.raises(ValueError):
            entry(*call)

    for at in written | read:
        a = arguments[at]
        rejected(at, a.reshape(-1)[:-1])  # short by one double
        rejected(at, np.append(a, 0.0))  # long by one
        rejected(at, np.repeat(a, 2, axis=-1)[..., ::2])  # the values, but not contiguous
        rejected(at, a.astype(np.float32))
        rejected(at, a.astype(np.int64))
    for at in written:
        rejected(at, read_only(arguments[at]))
    for at in read:
        entry(*arguments[:at], read_only(arguments[at]), *arguments[at + 1:])
    if name.startswith("swarm"):
        rejected(2, datetime.datetime_CAPI)  # a capsule, but not a BitGenerator's
        rejected(2, np.random.default_rng(0))
    with pytest.raises(TypeError):
        entry(*arguments[:-1])


def test_a_negative_count_or_an_empty_grid_is_rejected_before_the_kernel_reads():
    k, generator = kernel.load_kernel(), np.random.default_rng(0)
    rng = generator.bit_generator.capsule
    with pytest.raises(ValueError):
        k.swarm_settle(np.empty((0, 2)), -1, rng, 0.1, 0.11, 5)
    with pytest.raises(ValueError):  # an empty grid: a move would read the activity at cell -1
        k.swarm_move(np.full((1, 2), 0.5), 1, rng, np.empty(1), np.empty(0), 0, 2, 0.5, -1.0, 0.1)


def test_a_missing_python_h_names_it_in_the_compiler_error(tmp_path, monkeypatch):
    source = tmp_path / "kernel.c"
    shutil.copyfile(kernel.SOURCE, source)
    monkeypatch.setattr(kernel, "SOURCE", source)
    monkeypatch.setattr(sysconfig, "get_path", lambda name: str(tmp_path))  # an include directory without it
    kernel.load_kernel.cache_clear()
    try:
        with pytest.raises(CompilerError, match=r"needs a working C compiler \(cc\) and Python\.h: .*Python\.h"):
            kernel.load_kernel()
    finally:
        kernel.load_kernel.cache_clear()
    assert list((tmp_path / "__pycache__").iterdir()) == []


SUFFIX = EXTENSION_SUFFIXES[0]
SWARM_SCRIPT = """
import numpy as np
from fireflynet.firefly import FireflyPopulation, GridLayout, SwarmParams, swarm_step
from fireflynet.patterns import Pattern, gaussian_2d, save_pattern_csv
pop = FireflyPopulation.spawn(9, SwarmParams(), np.random.default_rng(0))
swarm_step(pop, Pattern(np.arange(9.0), grid=(3, 3)), GridLayout(3, 3))
print(pop.positions.tobytes().hex())
"""


def copy_package(tmp_path: Path) -> Path:
    """A copy of the package with an empty build cache; returns the
    directory to put on PYTHONPATH."""
    site = tmp_path / "site"
    shutil.copytree(
        Path(kernel.__file__).parent, site / "fireflynet", ignore=shutil.ignore_patterns("__pycache__")
    )
    return site


def failing_compiler(tmp_path: Path) -> str:
    """A PATH whose cc exits 1 at once."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    (bindir / "cc").write_text("#!/bin/sh\nexit 1\n")
    (bindir / "cc").chmod(0o755)
    return f"{bindir}{os.pathsep}{os.environ['PATH']}"


def run_python(site: Path, path: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(site), "PATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_a_second_interpreter_loads_the_cached_kernel_without_compiling(tmp_path):
    site = copy_package(tmp_path)
    built = run_python(site, os.environ["PATH"], "-c", SWARM_SCRIPT)
    assert built.returncode == 0, built.stderr
    cache = site / "fireflynet" / "__pycache__"
    assert len(list(cache.glob("kernel-*.so"))) == 1
    broken = failing_compiler(tmp_path)
    cached = run_python(site, broken, "-c", SWARM_SCRIPT)
    assert cached.returncode == 0, cached.stderr
    assert cached.stdout == built.stdout
    # that compiler fails whenever it runs, so the second run compiled nothing
    for lib in cache.glob("kernel-*.so"):
        lib.unlink()
    rebuilt = run_python(site, broken, "-c", SWARM_SCRIPT)
    assert rebuilt.returncode != 0 and "building kernel.c needs a working C compiler" in rebuilt.stderr


def test_a_parallel_swarm_sweep_builds_the_kernel_in_its_workers_on_an_empty_cache(tmp_path):
    site = copy_package(tmp_path)
    sweep = ["-m", "fireflynet.cli", "sweep", "--set", "experiment=denoise", "--set", "n=25", "--set", "rows=5",
             "--set", "cols=5", "--set", "use_firefly=true", "--set", "pattern_count=3", "--set", "seeds=0,1"]
    parallel = run_python(site, os.environ["PATH"], *sweep, "--jobs", "2", "--out", str(tmp_path / "parallel"))
    assert parallel.returncode == 0, parallel.stderr
    # each worker that found no library built one privately and renamed it in
    cache = site / "fireflynet" / "__pycache__"
    assert len(list(cache.glob("kernel-*.so"))) == 1
    assert [entry for entry in cache.iterdir() if entry.is_dir()] == []
    serial = run_python(site, os.environ["PATH"], *sweep, "--jobs", "1", "--out", str(tmp_path / "serial"))
    assert serial.returncode == 0, serial.stderr
    assert (tmp_path / "parallel" / "sweep.csv").read_bytes() == (tmp_path / "serial" / "sweep.csv").read_bytes()


def test_a_changed_kernel_source_builds_under_a_new_name(tmp_path, monkeypatch):
    source = tmp_path / "kernel.c"
    shutil.copyfile(kernel.SOURCE, source)
    stale = tmp_path / "__pycache__" / f"kernel-0000000000000000{SUFFIX}"  # an earlier source's build
    other = stale.with_name("kernel-0000000000000000.cpython-399-x86_64-linux-gnu.so")  # another interpreter's
    stale.parent.mkdir()
    stale.write_bytes(b"")
    other.write_bytes(b"")
    monkeypatch.setattr(kernel, "SOURCE", source)
    kernel.load_kernel.cache_clear()
    try:
        first = Path(kernel.load_kernel().__file__)
        assert first.is_file() and not stale.exists()
        source.write_text(source.read_text() + "\n/* edited */\n")
        kernel.load_kernel.cache_clear()
        second = Path(kernel.load_kernel().__file__)
    finally:
        kernel.load_kernel.cache_clear()
    assert first.parent == second.parent == tmp_path / "__pycache__"
    # the new build replaced the first in the cache; the first stays loaded
    assert first.name != second.name and set(second.parent.glob("kernel-*.so")) == {second, other}


def test_a_load_that_compiles_nothing_deletes_no_library(tmp_path, monkeypatch):
    source = tmp_path / "kernel.c"
    shutil.copyfile(kernel.SOURCE, source)
    monkeypatch.setattr(kernel, "SOURCE", source)
    kernel.load_kernel.cache_clear()
    try:
        built = Path(kernel.load_kernel().__file__)
        stale = built.with_name(f"kernel-0000000000000000{SUFFIX}")
        stale.write_bytes(b"")
        kernel.load_kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached kernel was compiled again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert Path(kernel.load_kernel().__file__) == built
    finally:
        kernel.load_kernel.cache_clear()
    assert stale.is_file()


def test_a_kernel_cache_that_cannot_be_written_falls_back_to_a_private_directory(tmp_path, monkeypatch):
    def step() -> np.ndarray:
        pop = FireflyPopulation.spawn(9, SwarmParams(), np.random.default_rng(0))
        swarm_step(pop, Pattern(np.arange(9.0), grid=(3, 3)), GridLayout(3, 3))
        return pop.positions

    expected = step()
    source = tmp_path / "package" / "kernel.c"
    source.parent.mkdir()
    shutil.copyfile(kernel.SOURCE, source)
    # a file where the cache directory belongs: unwritable even for root
    (source.parent / "__pycache__").write_text("")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    monkeypatch.setattr(kernel, "SOURCE", source)
    kernel.load_kernel.cache_clear()
    try:
        assert np.array_equal(step(), expected)
        # the library stays loaded once its private directory is gone
        assert list(private.iterdir()) == []
        assert np.array_equal(step(), expected)
    finally:
        kernel.load_kernel.cache_clear()


def test_without_a_compiler_a_swarm_experiment_exits_4_and_the_rest_still_runs(tmp_path):
    site = copy_package(tmp_path)
    patterns, model = tmp_path / "patterns", tmp_path / "model"
    patterns.mkdir()
    for k in range(2):
        save_pattern_csv(gaussian_2d(3, 3, k, 1.0, 1.0, 1.0), patterns / f"p{k}.csv")
    trained = run_python(
        site, os.environ["PATH"], "-m", "fireflynet.cli", "train", "--patterns", str(patterns),
        "--set", "n=9", "--set", "rows=3", "--set", "cols=3", "--set", "use_firefly=true", "--out", str(model),
    )
    assert trained.returncode == 0, trained.stderr
    for lib in (site / "fireflynet" / "__pycache__").glob("kernel-*.so"):
        lib.unlink()
    nothing = tmp_path / "empty"
    nothing.mkdir()  # a PATH with no cc on it

    def cli(out, *args):
        return run_python(site, str(nothing), "-m", "fireflynet.cli", *args, "--out", str(tmp_path / out))

    def fails_for_want_of_cc(run):
        assert run.returncode == 4
        assert run.stderr.count("\n") == 1 and "C compiler (cc)" in run.stderr
        assert "internal error" not in run.stderr and "'cc'" in run.stderr
        assert "Traceback" not in run.stderr

    fails_for_want_of_cc(cli("denoise", "experiment", "denoise", "--set", "n=25", "--set", "rows=5", "--set", "cols=5",
                             "--set", "use_firefly=true", "--set", "pattern_count=3", "--set", "seeds=0"))
    # every presentation solves its rows' fixed points in the kernel, swarm or not
    fails_for_want_of_cc(cli("plain", "train", "--patterns", str(patterns),
                             "--set", "n=9", "--set", "rows=3", "--set", "cols=3"))
    # every Euler step runs in the kernel
    fails_for_want_of_cc(cli("ring", "experiment", "evolve1d", "--set", "n=25"))
    assert cli("recalled", "recall", "--model", str(model), "--cue", str(patterns / "p0.csv")).returncode == 0
