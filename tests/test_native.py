"""The compiled kernels, the only sampling steps: building and caching
them, and the one-line error that `train`, `infer` and `eval --which
classify` exit with when they cannot be built or loaded."""

import ctypes
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from multitopic import _native
from multitopic.cli import main
from multitopic.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process, with an empty cache
    directory of its own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_library", None)
    return tmp_path / "cache" / "multitopic"


def train_config(tmp_path: Path) -> Path:
    """A fixed-annealing soft-link training config on a small synthetic
    corpus, writing to `tmp_path / "out"`."""
    data_dir = tmp_path / "data"
    assert main([
        "synth", "--k", "3", "--vocab", "40", "--docs", "12", "--doc-len", "10",
        "--reference-pairs", "5", "--seed", "1", "--output-dir", str(data_dir),
    ]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": "softlink", "k": 3, "train_iterations": 4, "top_frequent": 0,
        "anneal": {"schedule": "fixed", "interval": 2, "stop_iteration": 4},
        "paths": {
            "corpus1": str(data_dir / "corpus1.jsonl"), "corpus2": str(data_dir / "corpus2.jsonl"),
            "language1": "l1", "language2": "l2",
            "dictionary": str(data_dir / "dictionary.tsv"), "output_dir": str(tmp_path / "out"),
        },
    }))
    return config


def assert_train_fails(tmp_path: Path, capsys) -> str:
    """Run CLI `train`; it must exit 2 with one stderr line, no traceback
    and no output directory. Returns the line."""
    config = train_config(tmp_path)
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: compiled Gibbs sweeps unavailable: ")
    assert not (tmp_path / "out").exists()
    return line


def test_build_goes_to_a_hash_named_file_in_the_cache(fresh_loader):
    lib = _native.load()
    (library,) = fresh_loader.iterdir()
    assert library == _native.library_path(_native.SOURCE.read_bytes())
    assert _native.load() is lib
    # another source gets another file
    assert _native.library_path(b"int x;") != library


def test_failed_build_leaves_no_file_behind(tmp_path, monkeypatch, capsys, fresh_loader):
    # the interpreter rejects the compiler flags, so the build fails
    monkeypatch.setattr(_native, "find_compiler", lambda: sys.executable)
    line = assert_train_fails(tmp_path, capsys)
    assert f"{sys.executable} exited " in line
    assert list(fresh_loader.iterdir()) == []


def test_unloadable_cached_library_exits_2_and_is_left_as_it_is(
    tmp_path, monkeypatch, capsys, fresh_loader
):
    _native.load()
    (library,) = fresh_loader.glob("sweeps-*.so")
    # a truncated copy in another cache: the loaded file itself stays
    # intact, as this process has it mapped
    broken = tmp_path / "broken" / "multitopic" / library.name
    broken.parent.mkdir(parents=True)
    broken.write_bytes(library.read_bytes()[:64])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "broken"))
    monkeypatch.setattr(_native, "_library", None)
    line = assert_train_fails(tmp_path, capsys)
    assert f"cannot load the cached library {broken}" in line
    # the loader neither rebuilds nor loads any other file
    assert broken.stat().st_size == 64
    assert list(broken.parent.iterdir()) == [broken]


def test_unwritable_cache_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # a cache below a regular file cannot be created, even by root
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
    monkeypatch.setattr(_native, "_library", None)
    line = assert_train_fails(tmp_path, capsys)
    assert f"cannot write the cache directory {tmp_path / 'file' / 'cache' / 'multitopic'}" in line


def test_a_failed_load_is_not_remembered(monkeypatch, fresh_loader):
    find_compiler = _native.find_compiler
    monkeypatch.setattr(_native, "find_compiler", lambda: None)
    with pytest.raises(ConfigError, match="no C compiler"):
        _native.load()
    assert _native._library is None
    monkeypatch.setattr(_native, "find_compiler", find_compiler)
    assert _native.load() is not None


NO_COMPILER = (
    "configuration error: compiled Gibbs sweeps unavailable: "
    f"no C compiler (cc or gcc) on PATH; {_native.NEEDS}"
)


def run_without_compiler(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child process with no cc or gcc on an empty PATH and
    an empty cache at `tmp_path / "empty"`."""
    env = {
        "PATH": "", "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(tmp_path / "empty"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    return subprocess.run(
        [sys.executable, "-m", "multitopic.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_missing_compiler_exits_2_with_one_line(tmp_path):
    config = train_config(tmp_path)
    result = run_without_compiler(tmp_path, "train", "--config", str(config))
    assert result.returncode == 2
    (line,) = result.stderr.splitlines()
    assert line == NO_COMPILER
    # the compiler is looked for before any input is read or output made
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "empty").exists()


@pytest.fixture
def trained(tmp_path):
    """`tmp_path` after training `train_config`'s model to `out/model.json`."""
    assert main(["train", "--config", str(train_config(tmp_path))]) == 0
    return tmp_path


def held_out_argv(tmp_path: Path, command: str) -> list[str]:
    """`infer` on side 1, or `eval --which <command>` with every input
    any evaluation needs; either writes `tmp_path / "result.json"`."""
    data = tmp_path / "data"
    model, output = str(tmp_path / "out" / "model.json"), str(tmp_path / "result.json")
    if command == "infer":
        return ["infer", "--model", model, "--corpus", str(data / "corpus1.jsonl"),
                "--language", "l1", "--output", output]
    return [
        "eval", "--model", model, "--which", command,
        "--reference", str(data / "reference.jsonl"),
        "--dictionary", str(data / "dictionary.tsv"),
        "--test-corpus1", str(data / "corpus1.jsonl"), "--test-corpus2", str(data / "corpus2.jsonl"),
        "--output", output,
    ]


@pytest.mark.parametrize("command", ["infer", "classify", "classify,lis"])
def test_held_out_inference_without_a_compiler_exits_2_with_one_line(trained, command):
    result = run_without_compiler(trained, *held_out_argv(trained, command))
    assert result.returncode == 2
    (line,) = result.stderr.splitlines()
    assert line == NO_COMPILER
    assert not (trained / "result.json").exists()
    assert not (trained / "empty").exists()


def test_evaluations_without_inference_need_no_compiler(trained):
    result = run_without_compiler(trained, *held_out_argv(trained, "cnpmi,lis"))
    assert result.returncode == 0, result.stderr
    report = json.loads((trained / "result.json").read_text())
    assert report["cnpmi_mean"] is not None and report["lis_final"] is not None
    assert not (trained / "empty").exists()


def test_every_kernel_in_the_source_is_declared_and_no_other():
    # a declaration without its kernel would surface as a cached library
    # that cannot be loaded, which no rebuild mends
    defined = set(re.findall(r"^int64_t (\w+)\(", _native.SOURCE.read_text(), re.MULTILINE))

    class Library:
        def __init__(self):
            self.kernels = {}

        def __getattr__(self, name):
            return self.kernels.setdefault(name, SimpleNamespace())

    lib = Library()
    _native._declare(lib)
    assert set(lib.kernels) - defined == set(), "declared, but not defined in _sweeps.c"
    assert defined - set(lib.kernels) == set(), "defined in _sweeps.c, but not declared"
    for name, kernel in lib.kernels.items():
        # each returns its count of tokens whose scores have no usable sum
        assert getattr(kernel, "argtypes", None) and kernel.restype is ctypes.c_int64, name


def bitgen_fields(text: str) -> list[str]:
    """The field declarations of the `bitgen_t` struct in C source `text`,
    whitespace removed."""
    body = re.search(r"typedef struct bitgen \{(.*?)\} bitgen_t;", text, re.DOTALL)
    assert body, "no bitgen_t declaration"
    return ["".join(field.split()) for field in body.group(1).split(";") if field.strip()]


def test_bitgen_declaration_matches_numpys_header():
    # the kernels call next_double through their own copy of numpy's struct
    header = Path(np.get_include()) / "numpy" / "random" / "bitgen.h"
    if not header.is_file():
        pytest.skip(f"numpy's {header.name} is not installed")
    ours = bitgen_fields(_native.SOURCE.read_text())
    assert len(ours) == 5
    assert ours == bitgen_fields(header.read_text())


def test_kernels_compile_cleanly_under_every_common_warning(tmp_path):
    # the loader's flags plus -Wall -Wextra, each warning an error
    compiler = _native.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler (cc or gcc) on PATH")
    result = subprocess.run(
        [compiler, *_native.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "sweeps.so"), str(_native.SOURCE)],
        capture_output=True, text=True, timeout=_native.BUILD_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr


def test_relative_cache_home_is_ignored(monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    assert _native.cache_dir() == Path.home() / ".cache" / "multitopic"


def test_importing_the_package_builds_and_loads_nothing(tmp_path):
    probe = (
        "import multitopic, multitopic.cli\n"
        "from multitopic import _native\n"
        "assert _native._library is None\n"
    )
    env = {
        "PATH": "", "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(tmp_path),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
    assert list(tmp_path.iterdir()) == []
