"""The C kernel ``kernel.c``: built on first use, cached, declared and handed arrays.

What each entry point computes, and why it returns the bits of the reference
code in ``tests/oracles.py``, is told in ``kernel.c``'s header and above each
definition there.
"""

from __future__ import annotations

import ctypes
import os
from functools import cache
from pathlib import Path

import numpy as np

from .errors import CompilerError

SOURCE = Path(__file__).with_name("kernel.c")
COMMAND = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")

_long, _double, _ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
# (name, result type, argument types) of every entry point kernel.c defines; an
# undeclared argument would pass as a 32-bit int and cut an address short
ENTRY_POINTS = (
    ("swarm_move", _long, (_ptr, _long, _ptr, _ptr, _ptr, _long, _long, _double, _double, _double)),
    ("swarm_settle", _long, (_ptr, _long, _ptr, _double, _double, _long)),
    ("row_fixed_points", _long, (_ptr, _ptr, _ptr, _long, _double, _double, _double, _double)),
    ("euler_step", _double, (_ptr, _ptr, _ptr, _ptr, _ptr, _long, _double, _double, _double, _double)),
    ("synthesize", None, (_ptr, _long, _ptr, _ptr, _ptr, _long, _long, _double)),
)


@cache
def load_kernel() -> ctypes.CDLL:
    """The compiled kernel with its entry points declared, built the first time it is asked for.

    The library is cached in ``__pycache__`` beside ``SOURCE``, named by a hash
    of the source and ``COMMAND``, so later processes load it without
    compiling.  A new build goes to a private directory and is renamed into
    the cache, and the cache's libraries of other sources or commands are
    deleted; where the cache cannot be written, the build is loaded from a
    private temporary directory and the directory removed (the loaded mapping
    outlives the file).  Raises CompilerError when no C compiler is found or
    the build fails."""
    import hashlib  # only a first use needs these
    import subprocess
    import tempfile
    from contextlib import suppress

    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join(COMMAND).encode()).hexdigest()[:16]
    cached, lib = SOURCE.parent / "__pycache__" / f"{SOURCE.stem}-{tag}.so", None
    if not cached.is_file():
        try:
            cached.parent.mkdir(exist_ok=True)
            private = tempfile.TemporaryDirectory(dir=cached.parent)
        except OSError:  # never a shared, world-writable directory: mkdtemp's is private
            private, cached = tempfile.TemporaryDirectory(prefix="fireflynet-"), None
        with private:
            built = os.path.join(private.name, f"{SOURCE.stem}.so")
            try:
                run = subprocess.run([*COMMAND, "-o", built, str(SOURCE), "-lm"], capture_output=True, text=True)
                failure = run.returncode and (run.stderr.strip().splitlines() or [f"exit {run.returncode}"])[-1]
            except OSError as exc:
                failure = exc
            if failure:
                raise CompilerError(f"building {SOURCE.name} needs a working C compiler (cc): {failure}")
            if cached is None:
                lib = ctypes.CDLL(built)
            else:
                os.chmod(built, 0o755)  # whatever the umask, other users of the cache can load it
                os.replace(built, cached)
                for stale in set(cached.parent.glob(f"{SOURCE.stem}-*.so")) - {cached}:
                    with suppress(OSError):  # gone already, or not ours to delete
                        stale.unlink()
    lib = lib or ctypes.CDLL(str(cached))
    for name, result, arguments in ENTRY_POINTS:
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = result, arguments
    return lib


def address(a: np.ndarray) -> int:
    """A C-ordered array's data address for the kernel: about 0.5 us by from_buffer where
    writable, else (``WeightMatrix.w``, say, or an empty array) ``a.ctypes.data``'s 1.3-2.5 us."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data
