"""The compiled sweeps, the only training sweeps: building and caching
them, and the one-line error that `train` exits with when they cannot be
built or loaded."""

import json
import subprocess
import sys
from pathlib import Path

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
    and no model file. Returns the line."""
    config = train_config(tmp_path)
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: compiled Gibbs sweeps unavailable: ")
    assert not (tmp_path / "out" / "model.json").exists()
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


def test_missing_compiler_exits_2_with_one_line(tmp_path):
    config = train_config(tmp_path)
    # a child process with no cc or gcc on an empty PATH and an empty cache
    env = {"PATH": "", "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(tmp_path / "empty")}
    result = subprocess.run(
        [sys.executable, "-m", "multitopic.cli", "train", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    (line,) = result.stderr.splitlines()
    assert line == (
        "configuration error: compiled Gibbs sweeps unavailable: "
        f"no C compiler (cc or gcc) on PATH; {_native.NEEDS}"
    )
    assert not (tmp_path / "out" / "model.json").exists()
    assert not (tmp_path / "empty").exists()


def test_relative_cache_home_is_ignored(monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    assert _native.cache_dir() == Path.home() / ".cache" / "multitopic"


def test_importing_the_package_builds_and_loads_nothing(tmp_path):
    probe = (
        "import multitopic, multitopic.cli\n"
        "from multitopic import _native\n"
        "assert _native._library is None\n"
    )
    env = {"PATH": "", "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(tmp_path)}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
    assert list(tmp_path.iterdir()) == []
