"""The compiled-sweep backend: building and loading it, falling back to
the Python sweeps, and writing the same model files either way."""

import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from multitopic import _native
from multitopic.cli import main
from multitopic.corpus import BilingualCorpus
from multitopic.evaluate import generate_synthetic
from multitopic.models import Hyperparams, save_model, train
from multitopic.schedule import write_event_log
from multitopic.transfer import AnnealConfig, FocusConfig, build_transfer_matrix, static_focus

ROOT = Path(__file__).resolve().parent.parent
needs_compiler = pytest.mark.skipif(_native.find_compiler() is None, reason="no C compiler")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process, with an empty cache
    directory of its own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_library", _native._UNSET)
    return tmp_path / "cache" / "multitopic"


def model_runs():
    """Every model kind and both hard-link formulations on one small
    corpus, with fixed and adaptive annealing for soft links."""
    data = generate_synthetic(
        k=3, vocab_per_lang=40, docs_per_lang=12, doc_len=10,
        dict_coverage=0.3, topic_sharpness=8.0, seed=2,
    )
    corpus, dictionary = data.corpus, data.dictionary
    corpus = BilingualCorpus(corpus.side1, corpus.side2, [(0, 1), (3, 3), (5, 0)])
    focus = FocusConfig(threshold=0.6)
    transfer = {
        "transfer_to_side1": static_focus(
            build_transfer_matrix(corpus.side1, corpus.side2, dictionary), focus
        ),
        "transfer_to_side2": static_focus(
            build_transfer_matrix(corpus.side2, corpus.side1, dictionary), focus
        ),
    }
    fixed = AnnealConfig(schedule="fixed", interval=2, stop_iteration=4, temperature=0.5)
    adaptive = AnnealConfig(schedule="adaptive", interval=2, stop_iteration=4)
    return {
        "lda": ("lda", corpus, {}),
        "hardlink": ("hardlink", corpus, {}),
        "hardlink_joint": ("hardlink", corpus, {"hardlink_formulation": "joint"}),
        "softlink_fixed": ("softlink", corpus, {"anneal": fixed, **transfer}),
        "softlink_adaptive": (
            "softlink", corpus, {"anneal": adaptive, "dictionary": dictionary, **transfer}
        ),
        "voclink": ("voclink", corpus, {"dictionary": dictionary}),
        "softlink_voclink": (
            "softlink_voclink", corpus, {"anneal": fixed, "dictionary": dictionary, **transfer}
        ),
    }


def written_files(tmp_path: Path, name: str, model) -> tuple[bytes, bytes]:
    save_model(model, tmp_path / f"{name}.json")
    write_event_log(model.provenance.get("anneal_events", []), tmp_path / f"{name}.jsonl")
    return (tmp_path / f"{name}.json").read_bytes(), (tmp_path / f"{name}.jsonl").read_bytes()


@needs_compiler
@pytest.mark.parametrize("debug_checks", [False, True])
def test_both_backends_write_the_same_files(tmp_path, monkeypatch, debug_checks):
    assert _native.load() is not None, "the compiled sweeps should build here"
    runs = model_runs()
    hp = Hyperparams(k=4, train_iterations=4, seed=6)
    compiled = {
        name: written_files(tmp_path, f"c_{name}", train(kind, corpus, hp, debug_checks=debug_checks, **kw))
        for name, (kind, corpus, kw) in runs.items()
    }
    monkeypatch.setattr(_native, "load", lambda: None)
    for name, (kind, corpus, kw) in runs.items():
        model = train(kind, corpus, hp, debug_checks=debug_checks, **kw)
        assert written_files(tmp_path, f"py_{name}", model) == compiled[name], name
    assert json.loads(compiled["softlink_fixed"][0])["provenance"]["anneal_events"]
    assert json.loads(compiled["softlink_adaptive"][0])["provenance"]["lis_history"]


def cli_train(tmp_path: Path, name: str) -> tuple[bytes, bytes]:
    """Train a fixed-annealing soft-link model through the CLI."""
    data_dir = tmp_path / "data"
    if not data_dir.exists():
        assert main([
            "synth", "--k", "3", "--vocab", "40", "--docs", "12", "--doc-len", "10",
            "--reference-pairs", "5", "--seed", "1", "--output-dir", str(data_dir),
        ]) == 0
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({
        "model": "softlink", "k": 3, "train_iterations": 4, "top_frequent": 0,
        "anneal": {"schedule": "fixed", "interval": 2, "stop_iteration": 4},
        "paths": {
            "corpus1": str(data_dir / "corpus1.jsonl"), "corpus2": str(data_dir / "corpus2.jsonl"),
            "language1": "l1", "language2": "l2",
            "dictionary": str(data_dir / "dictionary.tsv"), "output_dir": str(out),
        },
    }))
    assert main(["train", "--config", str(config)]) == 0
    return (out / "model.json").read_bytes(), (out / "anneal_log.jsonl").read_bytes()


def fallback_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == _native.__name__]


@needs_compiler
def test_missing_compiler_falls_back_to_the_python_sweeps(
    tmp_path, monkeypatch, caplog, fresh_loader
):
    compiled = cli_train(tmp_path, "compiled")
    assert list(fresh_loader.glob("sweeps-*.so"))
    monkeypatch.setattr(_native, "_library", _native._UNSET)
    monkeypatch.setattr(_native, "find_compiler", lambda: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert cli_train(tmp_path, "python") == compiled
        assert cli_train(tmp_path, "python_again") == compiled
    (line,) = fallback_lines(caplog)
    assert "no C compiler" in line and "Python sweeps" in line
    assert not (tmp_path / "empty").exists()


@needs_compiler
def test_unloadable_cached_library_falls_back_to_the_python_sweeps(
    tmp_path, monkeypatch, caplog, fresh_loader
):
    compiled = cli_train(tmp_path, "compiled")
    (library,) = fresh_loader.glob("sweeps-*.so")
    # a truncated copy in another cache: the loaded file itself stays
    # intact, as this process has it mapped
    broken = tmp_path / "broken" / "multitopic" / library.name
    broken.parent.mkdir(parents=True)
    broken.write_bytes(library.read_bytes()[:64])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "broken"))
    monkeypatch.setattr(_native, "_library", _native._UNSET)
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert cli_train(tmp_path, "python") == compiled
    (line,) = fallback_lines(caplog)
    assert "compiled sweeps unavailable" in line
    # the loader neither rebuilds nor loads any other file
    assert broken.stat().st_size == 64
    assert list(broken.parent.iterdir()) == [broken]


@needs_compiler
def test_build_goes_to_a_hash_named_file_in_the_cache(fresh_loader):
    lib = _native.load()
    assert lib is not None
    (library,) = fresh_loader.iterdir()
    assert library == _native.library_path(_native.SOURCE.read_bytes())
    assert _native.load() is lib
    # another source gets another file
    assert _native.library_path(b"int x;") != library


def test_failed_build_leaves_no_file_behind(fresh_loader, monkeypatch, caplog):
    monkeypatch.setattr(_native, "find_compiler", lambda: sys.executable)
    with caplog.at_level(logging.INFO, logger=_native.__name__):
        assert _native.load() is None
    (line,) = fallback_lines(caplog)
    assert "exited" in line
    assert list(fresh_loader.iterdir()) == []


def test_relative_cache_home_is_ignored(monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    assert _native.cache_dir() == Path.home() / ".cache" / "multitopic"


def test_importing_the_package_builds_and_loads_nothing(tmp_path):
    probe = (
        "import multitopic, multitopic.cli\n"
        "from multitopic import _native\n"
        "assert _native._library is _native._UNSET\n"
    )
    env = {"PATH": "", "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(tmp_path)}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
    assert list(tmp_path.iterdir()) == []
