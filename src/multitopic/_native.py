"""Build and load the compiled Gibbs sweeps in `_sweeps.c`.

The first `load()` in a process compiles the shipped C source with the
system C compiler (`cc -O2 -ffp-contract=off -fPIC -shared`: no
floating-point contraction, no `-ffast-math`, no `-march=native`, so the
kernels draw exactly what the Python sweeps draw) into a per-user cache
directory, `$XDG_CACHE_HOME/multitopic` or `~/.cache/multitopic`. The
library's file name is the sha256 of the source, the flags and the
platform, so an edited source or another machine type gets a library of
its own; the build goes to a temporary name that is then renamed, so a
concurrent run never loads a half-written file. Later processes load the
cached file without compiling.

When no compiler is found, the build fails or the library cannot be
loaded, `load()` logs one INFO line and returns None, and training runs
the Python sweeps, which give the same outputs. Importing this module
builds and loads nothing.
"""

from __future__ import annotations

import logging
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_sweeps.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120

_UNSET = object()
_library = _UNSET  # the loaded library, None when unavailable, per process


def cache_dir() -> Path:
    """`$XDG_CACHE_HOME/multitopic`, or `~/.cache/multitopic` when that
    variable is unset or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(Path.home(), ".cache")
    return Path(base) / "multitopic"


def library_path(source: bytes) -> Path:
    """Cache path of the library built from `source` with `FLAGS` here."""
    import hashlib

    target = f"{sys.platform}-{platform.machine()}"
    key = b"\0".join([source, " ".join(FLAGS).encode(), target.encode()])
    return cache_dir() / f"sweeps-{hashlib.sha256(key).hexdigest()}.so"


def find_compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _build(compiler: str, target: Path) -> None:
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        try:
            result = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
        except subprocess.SubprocessError as exc:
            raise OSError(f"{compiler} did not finish: {exc}") from None
        if result.returncode != 0:
            first = (result.stderr.strip().splitlines() or ["no output"])[0]
            raise OSError(f"{compiler} exited {result.returncode}: {first}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib) -> None:
    import ctypes

    from numpy.ctypeslib import ndpointer

    n = ctypes.c_int64
    x = ctypes.c_double
    # ndpointer checks each array's dtype and layout on every call
    ints = ndpointer("int64", flags="C_CONTIGUOUS")
    floats = ndpointer("float64", flags="C_CONTIGUOUS")
    lib.sweep_plain.argtypes = [
        n, n, ints, ints, ints, ints, floats, ints, ints, x, x, floats, floats,
    ]
    lib.sweep_pooled.argtypes = [
        n, n, ints, ints, ints, ints, ints, ints, x, ints, ints, x, x, floats, floats,
    ]
    lib.sweep_tree.argtypes = [
        n, n, ints, ints, ints, ints, ints, floats, ints, ints, ints, ints,
        ints, ints, ints, ints, x, x, x, x, floats, floats,
    ]
    for kernel in (lib.sweep_plain, lib.sweep_pooled, lib.sweep_tree):
        kernel.restype = None


def _open():
    import ctypes

    path = library_path(SOURCE.read_bytes())
    if not path.is_file():
        compiler = find_compiler()
        if compiler is None:
            raise OSError("no C compiler (cc or gcc) on PATH")
        _build(compiler, path)
    lib = ctypes.CDLL(str(path))
    _declare(lib)
    return lib


def load():
    """The compiled sweeps as a ctypes library, built on the first call in
    a process; None, after one INFO line, when they are unavailable."""
    global _library
    if _library is _UNSET:
        try:
            _library = _open()
        except (OSError, AttributeError) as exc:  # AttributeError: a kernel is missing
            logger.info("compiled sweeps unavailable (%s); training runs the Python sweeps", exc)
            _library = None
    return _library
