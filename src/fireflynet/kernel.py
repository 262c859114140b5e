"""The C kernel ``kernel.c``: built on first use as a CPython extension module, and cached.

What each entry point computes, and why it returns the bits of the reference
code in ``tests/oracles.py``, is told in ``kernel.c``'s header and above each
definition there; the module's functions, at its end, take numpy arrays.
"""

from __future__ import annotations

import os
from functools import cache
from pathlib import Path
from types import ModuleType

from .errors import CompilerError

SOURCE = Path(__file__).with_name("kernel.c")
COMMAND = ("cc", "-O2", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")


@cache
def load_kernel() -> ModuleType:
    """The compiled kernel module, built the first time it is asked for.

    The module is cached in ``__pycache__`` beside ``SOURCE``, named by a hash
    of the source and ``COMMAND`` and by the interpreter's extension suffix, so
    later processes load it without compiling.  A build adds the interpreter's
    include directory to ``COMMAND``, goes to a private directory and is renamed
    into the cache, and the cache's modules of other sources or commands for
    this interpreter are deleted; where the cache cannot be written, the build
    is loaded from a private temporary directory and the directory removed (the
    loaded mapping outlives the file).  Raises CompilerError when no C compiler
    is found or the build fails, for want of Python.h say."""
    import hashlib  # only a first use needs these
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import module_from_spec, spec_from_file_location

    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join(COMMAND).encode()).hexdigest()[:16]
    suffix = EXTENSION_SUFFIXES[0]
    cached = SOURCE.parent / "__pycache__" / f"{SOURCE.stem}-{tag}{suffix}"
    if not cached.is_file():
        import subprocess  # only a build needs these
        import sysconfig
        import tempfile
        from contextlib import suppress
        try:
            cached.parent.mkdir(exist_ok=True)
            private = tempfile.TemporaryDirectory(dir=cached.parent)
        except OSError:  # never a shared, world-writable directory: mkdtemp's is private
            private, cached = tempfile.TemporaryDirectory(prefix="fireflynet-"), None
        with private:
            built = os.path.join(private.name, f"{SOURCE.stem}{suffix}")
            command = [*COMMAND, "-I" + sysconfig.get_path("include"), "-o", built, str(SOURCE), "-lm"]
            try:
                run = subprocess.run(command, capture_output=True, text=True)
                lines = run.stderr.strip().splitlines() or [f"exit {run.returncode}"]
                failure = run.returncode and next((line for line in lines if "error" in line), lines[-1])
            except OSError as exc:
                failure = exc
            if failure:
                raise CompilerError(f"building {SOURCE.name} needs a working C compiler (cc) and Python.h: {failure}")
            if cached is None:
                return module_from_spec(spec_from_file_location(SOURCE.stem, built))
            os.chmod(built, 0o755)  # whatever the umask, other users of the cache can load it
            os.replace(built, cached)
            for stale in set(cached.parent.glob(f"{SOURCE.stem}-*{suffix}")) - {cached}:
                with suppress(OSError):  # gone already, or not ours to delete
                    stale.unlink()
    return module_from_spec(spec_from_file_location(SOURCE.stem, cached))  # single-phase: whole once created
