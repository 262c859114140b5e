"""The C kernel: its declarations, its build cache, and a host without a compiler."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from fireflynet import kernel
from fireflynet.firefly import FireflyPopulation, GridLayout, SwarmParams, swarm_step
from fireflynet.patterns import Pattern, gaussian_2d, save_pattern_csv

# a non-static definition in kernel.c: result type, name, parameters (over several lines)
DEFINITION = re.compile(r"^(?!static\b)(\w[\w ]*?[ *]+)(\w+)\(([^)]*)\)\s*\{", re.M)


def ctypes_kind(declaration: str):
    """The ctypes type that passes the C parameter or result type ``declaration``."""
    if "*" in declaration:
        return ctypes.c_void_p
    return {"long": ctypes.c_long, "double": ctypes.c_double, "void": None}[declaration.split()[0]]


def test_the_declaration_table_matches_the_definitions_in_kernel_c():
    definitions = {name: (result, params) for result, name, params in DEFINITION.findall(kernel.SOURCE.read_text())}
    assert set(definitions) == {name for name, _, _ in kernel.ENTRY_POINTS}
    lib = kernel.load_kernel()
    for name, result, arguments in kernel.ENTRY_POINTS:
        c_result, c_params = definitions[name]
        assert result is ctypes_kind(c_result), name
        assert arguments == tuple(ctypes_kind(param) for param in c_params.split(",")), name
        assert getattr(lib, name).restype is result and getattr(lib, name).argtypes == arguments


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
    stale = tmp_path / "__pycache__" / "kernel-0000000000000000.so"  # an earlier source's build
    stale.parent.mkdir()
    stale.write_bytes(b"")
    monkeypatch.setattr(kernel, "SOURCE", source)
    kernel.load_kernel.cache_clear()
    try:
        first = Path(kernel.load_kernel()._name)
        assert first.is_file() and not stale.exists()
        source.write_text(source.read_text() + "\n/* edited */\n")
        kernel.load_kernel.cache_clear()
        second = Path(kernel.load_kernel()._name)
    finally:
        kernel.load_kernel.cache_clear()
    assert first.parent == second.parent == tmp_path / "__pycache__"
    # the new build replaced the first in the cache; the first stays loaded
    assert first.name != second.name and list(second.parent.glob("kernel-*.so")) == [second]


def test_a_load_that_compiles_nothing_deletes_no_library(tmp_path, monkeypatch):
    source = tmp_path / "kernel.c"
    shutil.copyfile(kernel.SOURCE, source)
    monkeypatch.setattr(kernel, "SOURCE", source)
    kernel.load_kernel.cache_clear()
    try:
        built = Path(kernel.load_kernel()._name)
        stale = built.with_name("kernel-0000000000000000.so")
        stale.write_bytes(b"")
        kernel.load_kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cached kernel was compiled again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert Path(kernel.load_kernel()._name) == built
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
