"""Build and load the compiled Gibbs steps in `_sweeps.c`: the training
sweep and held-out inference, the only sampling steps there are.

The first `load()` in a process compiles the shipped C source with the
system C compiler (`cc -O2 -ffp-contract=off -fPIC -shared`: no
floating-point contraction, no `-ffast-math`, no `-march=native`, so the
kernels draw exactly what the scalar reference loops draw) into a per-user
cache directory, `$XDG_CACHE_HOME/multitopic` or `~/.cache/multitopic`.
The library's file name is the sha256 of the source, the flags and the
platform, so an edited source or another machine type gets a library of
its own; the build goes to a temporary name that is then renamed, so a
concurrent run never loads a half-written file. Later processes load the
cached file without compiling.

Training and held-out inference therefore need a C compiler (cc or gcc)
on PATH and a writable cache directory until the library is cached. When
either is missing, the build fails or the cached file cannot be loaded,
`load()` raises `ConfigError` with one line that names the cause; nothing
is remembered, so the next call tries again. Importing this module builds
and loads nothing.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from .errors import ConfigError

SOURCE = Path(__file__).with_name("_sweeps.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120

# what sampling needs: the remedy that `load()`'s errors name, except for a
# cached file that cannot be loaded
NEEDS = (
    "train, infer and eval --which classify need a C compiler (cc or gcc) on PATH "
    "and a writable cache directory to build them"
)

_library = None  # the loaded library, once a load() has succeeded in this process


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


def _unavailable(cause: str, remedy: str = NEEDS) -> ConfigError:
    return ConfigError(f"compiled Gibbs sweeps unavailable: {cause}; {remedy}")


def _build(compiler: str, target: Path) -> None:
    import subprocess

    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
        os.close(fd)
    except OSError as exc:
        raise _unavailable(
            f"cannot write the cache directory {target.parent}: {exc.strerror or exc}"
        ) from None
    try:
        try:
            result = subprocess.run(
                [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _unavailable(f"{compiler} did not run to the end: {exc}") from None
        if result.returncode != 0:
            first = (result.stderr.strip().splitlines() or ["no output"])[0]
            raise _unavailable(f"{compiler} exited {result.returncode}: {first}")
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
    lib.sweep_tree.argtypes = [
        n, n, ints, ints, ints, ints, ints, floats, ints, ints, ints,
        ints, ints, ints, ints, x, x, x, x, floats, floats, floats,
    ]
    lib.infer_doc.argtypes = [n, n, n, ints, ints, ints, floats, x, floats, floats]
    # each returns how many tokens' topic scores overflowed (see _sweeps.c)
    lib.sweep_tree.restype = lib.infer_doc.restype = n


def _open():
    import ctypes

    path = library_path(SOURCE.read_bytes())
    if not path.is_file():
        compiler = find_compiler()
        if compiler is None:
            raise _unavailable("no C compiler (cc or gcc) on PATH")
        _build(compiler, path)
    try:
        lib = ctypes.CDLL(str(path))
        _declare(lib)
    except (OSError, AttributeError) as exc:  # AttributeError: a kernel is missing
        reason = str(exc).removeprefix(f"{path}: ")  # dlopen names the file too
        raise _unavailable(
            f"cannot load the cached library {path} ({reason})",
            "delete it and the next run builds it again",
        ) from None
    return lib


def load():
    """The compiled kernels as a ctypes library, built on the first call in
    a process that finds no cached library. Raises `ConfigError` when they
    cannot be built or loaded."""
    global _library
    if _library is None:
        _library = _open()
    return _library
