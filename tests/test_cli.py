"""End-to-end command-line behavior: wiring, determinism, exit codes."""

import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multitopic import evaluate as ev
from multitopic import _native, cli, models
from multitopic.cli import CONFIG_KEYS, _write_manifest, main
from multitopic.corpus import (
    BilingualCorpus, Corpus, Document, LoaderOptions, Vocabulary, load_corpus, load_stopwords,
)
from multitopic.dictionary import BilingualDictionary, load_dictionary, subsample
from multitopic.errors import ConfigError, DataError
from multitopic.evaluate import load_reference
from multitopic.models import Hyperparams, load_model
from multitopic.settings import declared
from multitopic.transfer import (
    AnnealConfig, FocusConfig, TransferMatrix, anneal_matrix, build_transfer_matrix,
)

SRC = Path(__file__).resolve().parent.parent / "src"
TOO_LONG = "x" * 300  # a file name the system refuses to look up


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture
def toy_data(tmp_path):
    rng = np.random.default_rng(0)
    words1 = [f"a{i}" for i in range(12)]
    words2 = [f"b{i}" for i in range(12)]
    recs1, recs2 = [], []
    for d in range(15):
        topic = d % 2
        lo, hi = (0, 6) if topic == 0 else (6, 12)
        recs1.append(
            {
                "id": f"x{d}",
                "lang": "l1",
                "tokens": [words1[int(i)] for i in rng.integers(lo, hi, size=12)],
                "labels": [f"t{topic}"],
            }
        )
        recs2.append(
            {
                "id": f"y{d}",
                "lang": "l2",
                "tokens": [words2[int(i)] for i in rng.integers(lo, hi, size=12)],
                "labels": [f"t{topic}"],
            }
        )
    corpus1 = tmp_path / "c1.jsonl"
    corpus2 = tmp_path / "c2.jsonl"
    write_jsonl(corpus1, recs1)
    write_jsonl(corpus2, recs2)
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text("".join(f"a{i}\tb{i}\n" for i in range(12)))
    return {"corpus1": corpus1, "corpus2": corpus2, "dictionary": dictionary}


def base_config(toy_data, out_dir, **overrides):
    config = {
        "model": "lda",
        "seed": 3,
        "k": 2,
        "train_iterations": 5,
        "infer_iterations": 10,
        "top_frequent": 0,
        "paths": {
            "corpus1": str(toy_data["corpus1"]),
            "corpus2": str(toy_data["corpus2"]),
            "language1": "l1",
            "language2": "l2",
            "dictionary": str(toy_data["dictionary"]),
            "output_dir": str(out_dir),
        },
    }
    config.update(overrides)
    return config


def run_train(tmp_path, toy_data, name, **overrides):
    out_dir = tmp_path / name
    config = base_config(toy_data, out_dir, **overrides)
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 0
    return out_dir


def test_train_writes_model_and_manifest(tmp_path, toy_data):
    out_dir = run_train(tmp_path, toy_data, "lda_run")
    model = load_model(out_dir / "model.json")
    assert model.model_kind == "lda"
    for side in (0, 1):
        np.testing.assert_allclose(model.phi[side].sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.theta[side].sum(axis=1), 1.0, atol=1e-9)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert len(manifest["config_hash"]) == 64


def test_rerun_is_byte_identical(tmp_path, toy_data):
    out1 = run_train(tmp_path, toy_data, "runA")
    out2 = run_train(tmp_path, toy_data, "runB")
    bytes1 = (out1 / "model.json").read_bytes()
    bytes2 = (out2 / "model.json").read_bytes()
    assert bytes1 == bytes2


def test_softlink_with_full_threshold_matches_lda(tmp_path, toy_data):
    out_lda = run_train(tmp_path, toy_data, "plain")
    out_soft = run_train(
        tmp_path, toy_data, "soft",
        model="softlink", focus={"threshold": 1.0, "scope": "doc_wise"},
    )
    lda = load_model(out_lda / "model.json")
    soft = load_model(out_soft / "model.json")
    for side in (0, 1):
        assert np.array_equal(lda.phi[side], soft.phi[side])


def test_train_all_kinds_through_cli(tmp_path, toy_data):
    for kind in ("hardlink", "voclink", "softlink_voclink"):
        out = run_train(tmp_path, toy_data, f"kind_{kind}", model=kind)
        assert load_model(out / "model.json").model_kind == kind


def train_child(tmp_path, toy_data, **overrides):
    """`train` on the toy data in a child process, as a user runs it."""
    config = tmp_path / "child.json"
    config.write_text(json.dumps(base_config(toy_data, tmp_path / "out", **overrides)))
    return subprocess.run(
        [sys.executable, "-m", "multitopic.cli", "train", "--config", str(config)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )


def test_hardlink_without_a_linked_pair_warns_on_stderr(tmp_path, toy_data):
    # the toy corpora carry no link ids
    result = train_child(tmp_path, toy_data, model="hardlink")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "WARNING:multitopic.models:no document pair is hard-linked, "
        "so the hardlink model is per-language LDA"
    ]
    assert load_model(tmp_path / "out" / "model.json").model_kind == "hardlink"


@pytest.mark.parametrize("model, base", [
    ("softlink", "per-language LDA"), ("softlink_voclink", "voclink"),
])
def test_soft_links_focused_to_nothing_warn_on_stderr(tmp_path, toy_data, model, base):
    result = train_child(tmp_path, toy_data, model=model, focus={"threshold": 0.6})
    assert (result.returncode, result.stderr) == (0, "")
    # no weight lies strictly above the row maximum, so focus 1.0 empties every row
    result = train_child(tmp_path, toy_data, model=model, focus={"threshold": 1.0})
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        f"WARNING:multitopic.models:no transfer table holds an entry, so the {model} model is {base}"
    ]


@pytest.mark.parametrize("schedule", ["fixed", "adaptive"])
def test_annealing_at_a_tiny_temperature_trains_quietly(tmp_path, toy_data, schedule):
    # every toy transfer weight is below 0.45, so each flushes to zero
    # under the power 1000 and its row takes the limit of annealing
    result = train_child(
        tmp_path, toy_data, model="softlink", train_iterations=8,
        anneal={"schedule": schedule, "interval": 2, "temperature": 0.001},
    )
    assert (result.returncode, result.stderr) == (0, "")
    events = [json.loads(line) for line in (tmp_path / "out" / "anneal_log.jsonl").open()]
    assert events and all(event["rows_annealed"] for event in events)


def test_anneal_log_written_for_fixed_schedule(tmp_path, toy_data):
    out = run_train(
        tmp_path, toy_data, "annealed",
        model="softlink",
        train_iterations=12,
        anneal={"schedule": "fixed", "interval": 4, "stop_iteration": 8},
    )
    lines = (out / "anneal_log.jsonl").read_text().strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert [e["iteration"] for e in events] == [4, 8]


def test_infer_and_eval_round(tmp_path, toy_data):
    out = run_train(tmp_path, toy_data, "for_eval", model="softlink")
    theta_path = tmp_path / "theta.json"
    code = main([
        "infer", "--model", str(out / "model.json"),
        "--corpus", str(toy_data["corpus1"]), "--language", "l1",
        "--output", str(theta_path), "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(theta_path.read_text())
    # one line of compact JSON with sorted keys; floats survive the round trip
    compact = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert theta_path.read_text() == compact + "\n"
    assert len(payload["theta"]) == 15
    np.testing.assert_allclose(np.sum(payload["theta"], axis=1), 1.0, atol=1e-9)

    report_path = tmp_path / "report.json"
    code = main([
        "eval", "--model", str(out / "model.json"),
        "--which", "classify,lis",
        "--test-corpus1", str(toy_data["corpus1"]),
        "--test-corpus2", str(toy_data["corpus2"]),
        "--dictionary", str(toy_data["dictionary"]),
        "--output", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["f1_side1_to_side2"] <= 1.0
    assert 0.0 <= report["lis_final"] <= 1.0
    assert "logistic" in report["metadata"]["classifier"]


def test_synth_outputs_round_trip(tmp_path):
    out_dir = tmp_path / "synth"
    code = main([
        "synth", "--k", "3", "--vocab", "40", "--docs", "10", "--doc-len", "12",
        "--dict-coverage", "0.2", "--seed", "5", "--reference-pairs", "20",
        "--output-dir", str(out_dir),
    ])
    assert code == 0
    c1 = load_corpus(out_dir / "corpus1.jsonl", "l1", LoaderOptions(top_frequent=0))
    c2 = load_corpus(out_dir / "corpus2.jsonl", "l2", LoaderOptions(top_frequent=0))
    assert len(c1.documents) == 10 and len(c2.documents) == 10
    tsv_lines = [
        line for line in (out_dir / "dictionary.tsv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(tsv_lines) == 8  # round(0.2 * 40)
    # the loader keeps exactly the pairs whose words occur in both corpora
    d = load_dictionary(out_dir / "dictionary.tsv", c1.vocabulary, c2.vocabulary)
    expected = sum(
        1 for line in tsv_lines
        if line.split("\t")[0] in c1.vocabulary.id_of_word
        and line.split("\t")[1] in c2.vocabulary.id_of_word
    )
    assert len(d) == expected
    ref = load_reference(out_dir / "reference.jsonl", c1.vocabulary, c2.vocabulary)
    assert ref.n_pairs == 20
    truth = json.loads((out_dir / "truth.json").read_text())
    assert len(truth["phi"][0]) == 3


def test_transfer_build_dump_is_sorted_and_normalized(tmp_path, toy_data):
    out_path = tmp_path / "matrix.tsv"
    code = main([
        "transfer-build",
        "--corpus1", str(toy_data["corpus1"]), "--corpus2", str(toy_data["corpus2"]),
        "--language1", "l1", "--language2", "l2",
        "--dictionary", str(toy_data["dictionary"]),
        "--top-frequent", "0", "--output", str(out_path),
    ])
    assert code == 0
    rows = {}
    for line in out_path.read_text().strip().splitlines():
        target, source, weight = line.split("\t")
        rows.setdefault(target, []).append(float(weight))
    for weights in rows.values():
        assert weights == sorted(weights, reverse=True)
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_transfer_build_refuses_two_corpora_of_one_language(tmp_path, toy_data, capsys):
    # corpus 2 relabelled as language l1: the dictionary would be read in
    # the same orientation from both sides and the matrix come out wrong
    relabelled = tmp_path / "c2_as_l1.jsonl"
    lines = toy_data["corpus2"].read_text().splitlines()
    write_jsonl(relabelled, [{**json.loads(line), "lang": "l1"} for line in lines])
    out_path = tmp_path / "matrix.tsv"
    code = main([
        "transfer-build",
        "--corpus1", str(toy_data["corpus1"]), "--corpus2", str(relabelled),
        "--language1", "l1", "--language2", "l1", "--target-side", "1",
        "--dictionary", str(toy_data["dictionary"]),
        "--top-frequent", "0", "--output", str(out_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: both corpora have language 'l1'\n"
    assert not out_path.exists()
    corpus = _two_word_corpus("l1")
    dictionary = BilingualDictionary("l1", "l1", [(0, 1)])
    with pytest.raises(ConfigError, match="^both corpora have language 'l1'$"):
        build_transfer_matrix(corpus, corpus, dictionary)


def test_transfer_build_refuses_one_language_before_opening_any_input(tmp_path, capsys):
    missing = tmp_path / "missing"
    out_path = tmp_path / "matrix.tsv"
    code = main([
        "transfer-build",
        "--corpus1", str(missing / "c1.jsonl"), "--corpus2", str(missing / "c2.jsonl"),
        "--language1", "l1", "--language2", "l1", "--target-side", "1",
        "--dictionary", str(missing / "dict.tsv"), "--output", str(out_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: both corpora have language 'l1'\n"
    assert not out_path.exists()


def test_train_seed_and_threads_flags_reach_the_manifest_as_integers(tmp_path, toy_data):
    flagged = tmp_path / "flagged"
    config_path = tmp_path / "flagged.json"
    config_path.write_text(json.dumps(base_config(toy_data, flagged)))
    assert main(["train", "--config", str(config_path), "--seed", "7", "--threads", "2"]) == 0
    manifest = json.loads((flagged / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 7
    assert manifest["config"]["threads"] == 2
    assert type(manifest["seed"]) is int and type(manifest["config"]["threads"]) is int
    # the same run as a config that sets them
    configured = run_train(tmp_path, toy_data, "configured", seed=7, threads=2)
    assert (configured / "model.json").read_bytes() == (flagged / "model.json").read_bytes()


def test_negative_top_frequent_in_config_exits_2(tmp_path, toy_data, capsys):
    config = base_config(toy_data, tmp_path / "out", top_frequent=-5)
    config_path = tmp_path / "negative_top_frequent.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "top_frequent must be non-negative" in err
    assert not (tmp_path / "out").exists()


def test_negative_top_frequent_flag_exits_2(tmp_path, toy_data, capsys):
    out_path = tmp_path / "matrix.tsv"
    code = main([
        "transfer-build",
        "--corpus1", str(toy_data["corpus1"]), "--corpus2", str(toy_data["corpus2"]),
        "--language1", "l1", "--language2", "l2",
        "--dictionary", str(toy_data["dictionary"]),
        "--top-frequent", "-4", "--output", str(out_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: --top-frequent must be non-negative, got -4\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_synth_without_reference_pairs_exits_2(tmp_path, capsys, pairs):
    out_dir = tmp_path / "synth"
    assert main(["synth", "--reference-pairs", pairs, "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--reference-pairs must be at least 1" in err
    assert not out_dir.exists()


def test_inspect_prints_top_words(tmp_path, toy_data, capsys):
    out = run_train(tmp_path, toy_data, "inspectable")
    assert main(["inspect", "--model", str(out / "model.json")]) == 0
    printed = capsys.readouterr().out
    assert "topic" in printed and "l1" in printed


def run_into_closed_pipe(tmp_path, *argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process whose stdout is a pipe that nobody
    reads any more, as under `| head -1`, with no compiler on PATH and an
    empty cache."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {
        "PATH": "", "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    try:
        return subprocess.run(
            [sys.executable, "-m", "multitopic.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


def test_inspect_into_a_closed_pipe_exits_1_quietly(tmp_path, toy_data):
    out = run_train(tmp_path, toy_data, "piped")
    result = run_into_closed_pipe(tmp_path, "inspect", "--model", str(out / "model.json"))
    assert (result.returncode, result.stderr) == (1, "")
    assert not (tmp_path / "cache").exists()


def test_eval_into_a_closed_pipe_still_writes_its_report(tmp_path, toy_data):
    out = run_train(tmp_path, toy_data, "piped")
    report_path = tmp_path / "report.json"
    result = run_into_closed_pipe(
        tmp_path, "eval", "--model", str(out / "model.json"), "--which", "lis",
        "--dictionary", str(toy_data["dictionary"]), "--output", str(report_path),
    )
    assert (result.returncode, result.stderr) == (1, "")
    assert 0.0 <= json.loads(report_path.read_text())["lis_final"] <= 1.0


def test_eval_report_with_nan_exits_3_and_writes_nothing(tmp_path, toy_data, monkeypatch, capsys):
    out = run_train(tmp_path, toy_data, "nan_report")
    reference = tmp_path / "reference.jsonl"
    write_jsonl(reference, [{"l1_types": ["a0"], "l2_types": ["b0"]}])
    monkeypatch.setattr(ev, "cnpmi_model", lambda model, ref, c: ([float("nan")] * 2, float("nan")))
    report_path = tmp_path / "report.json"
    for output in (["--output", str(report_path)], []):
        capsys.readouterr()
        code = main([
            "eval", "--model", str(out / "model.json"), "--which", "cnpmi",
            "--reference", str(reference), "--top-words", "5", *output,
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "NaN" not in captured.out
        assert "not JSON compliant" in captured.err
    assert not report_path.exists()


def test_manifest_with_nan_exits_3_and_is_not_written(tmp_path):
    # `train` refuses a NaN in any config key before it starts, so the
    # writer's own guard is called directly; `main` maps DataError to exit 3
    config = {"seed": 0, "dictionary_fraction": float("nan")}
    with pytest.raises(DataError, match="cannot write the manifest"):
        _write_manifest(config, "train", tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_exit_code_2_on_config_errors(tmp_path, toy_data, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "nonesuch"}))
    assert main(["train", "--config", str(bad)]) == 2
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"modle": "lda"}))
    assert main(["train", "--config", str(unknown_key)]) == 2
    # checked before the (missing) model file is read, which would exit 3
    for which in ("", " , ", "cnpmi,bogus"):
        capsys.readouterr()
        assert main(["eval", "--model", str(tmp_path / "missing.json"), "--which", which]) == 2
        assert "--which must list one or more of cnpmi, classify, lis" in capsys.readouterr().err


def test_exit_code_3_on_data_errors(tmp_path, toy_data):
    broken = tmp_path / "broken.jsonl"
    broken.write_text("this is not json\n")
    config = base_config(toy_data, tmp_path / "out")
    config["paths"]["corpus1"] = str(broken)
    config_path = tmp_path / "broken_config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 3
    assert not (tmp_path / "out").exists()


def test_dictionary_too_small_for_lis_exits_2_before_training(
    tmp_path, toy_data, capsys, monkeypatch
):
    # 30% of the 12 toy concepts leaves 4, too few for 5-fold LIS
    config = base_config(
        toy_data, tmp_path / "out" / "run", model="softlink", dictionary_fraction=0.3,
        anneal={"schedule": "adaptive", "interval": 2},
    )
    config_path = tmp_path / "small_dictionary.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setattr(
        models, "_tree_sweep", lambda *a: pytest.fail("a sweep ran before the check")
    )
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "configuration error: need at least 10 concepts for 5-fold LIS, got 4"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["alpha", "beta", "beta_root", "beta_internal"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_hyperparameter_exits_2(tmp_path, toy_data, name, value):
    config = base_config(toy_data, tmp_path / "out", **{name: value})
    config_path = tmp_path / "nonfinite.json"
    # json writes NaN/Infinity literals, which json.load reads back as floats
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"alpha": "x"},
    {"beta": None},
    {"beta_root": [0.1]},
    {"beta_internal": "x"},
    {"k": "two"},
    {"train_iterations": "x"},
    {"infer_iterations": {}},
    {"seed": "x"},
    {"threads": "x"},
    {"top_frequent": "x"},
    {"model": "softlink", "dictionary_fraction": "x"},
    {"model": "softlink", "focus": {"threshold": "x"}},
    {"anneal": {"temperature": "x"}},
    {"anneal": {"interval": "x"}},
    {"anneal": {"stop_iteration": None}},
    {"anneal": {"lis_every": "x"}},
])
def test_non_numeric_config_value_exits_2(tmp_path, toy_data, capsys, overrides):
    config = base_config(toy_data, tmp_path / "out", **overrides)
    config_path = tmp_path / "non_numeric.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "must be a number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"seed": -1}, "seed must be non-negative"),
    ({"k": 3.9}, "k must be an integer, got 3.9"),
    ({"train_iterations": 2.5}, "train_iterations must be an integer"),
    ({"anneal": {"interval": 2.5}}, "anneal.interval must be an integer"),
    ({"top_frequent": float("inf")}, "top_frequent must be an integer"),
    ({"k": True}, "k must be a number, got True"),
    ({"seed": False}, "seed must be a number, got False"),
    ({"threads": True}, "threads must be a number, got True"),
    ({"alpha": True}, "alpha must be a number, got True"),
    ({"keep_empty": "false"}, "keep_empty must be true or false, got 'false'"),
    ({"keep_empty": 0}, "keep_empty must be true or false, got 0"),
    ({"keep_empty": None}, "keep_empty must be true or false, got None"),
])
def test_integer_and_boolean_config_values_exit_2(
    tmp_path, toy_data, capsys, overrides, message
):
    config = base_config(toy_data, tmp_path / "out", **overrides)
    config_path = tmp_path / "bad_value.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not (tmp_path / "out").exists()


def test_integral_float_counts_as_an_integer(tmp_path, toy_data):
    ints = run_train(tmp_path, toy_data, "ints")
    floats = run_train(tmp_path, toy_data, "floats", k=2.0, seed=3.0, train_iterations=5.0)
    assert (ints / "model.json").read_bytes() == (floats / "model.json").read_bytes()


def _bad_values(key):
    """Values of the wrong kind or outside the range for one CONFIG_KEYS row."""
    if key.kind in ("int", "float"):
        low, high = (float(end) for end in key.bounds[1:-1].split(","))
        cast = int if key.kind == "int" else float
        values = ["1", True, None, [1], float("nan"), float("-inf"), cast(low) - 1]
        if not key.bounds.endswith("inf]"):  # a range such as (0, inf] admits infinity
            values.append(float("inf"))
        if key.bounds[0] == "(":
            values.append(cast(low))
        if high != float("inf"):
            values.append(high + 1)
        if key.kind == "int":
            values.append(low + 0.5)
        return values
    if key.kind == "bool":
        return ["false", 0, None]
    if key.kind == "enum":
        return ["nope", [key.choices[0]], None]
    return [5, ["x"]] + ([] if key.default is None else [None])


@pytest.fixture
def unloadable_inputs(tmp_path):
    """Corpora that exist but are not JSON lines, so a check that ran
    after loading would exit 3, not 2, and a dictionary."""
    inputs = {
        "corpus1": tmp_path / "c1.jsonl",
        "corpus2": tmp_path / "c2.jsonl",
        "dictionary": tmp_path / "dict.tsv",
    }
    inputs["corpus1"].write_text("this is not json\n")
    inputs["corpus2"].write_text("this is not json\n")
    inputs["dictionary"].write_text("a0\tb0\n")
    return inputs


def assert_refused_before_any_work(tmp_path, capsys, config, *words):
    """`train` on `config`, run in `tmp_path`, exits 2 with one stderr
    line holding `words`, never reaches the compiled-sweep loader and
    leaves `tmp_path` as it found it."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path)
        patch.setattr(_native, "load", lambda: pytest.fail("_native.load was reached"))
        assert main(["train", "--config", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: ")
    for word in words:
        assert word in line
    assert set(tmp_path.iterdir()) == before


def test_the_unloadable_inputs_are_only_found_by_loading(tmp_path, unloadable_inputs):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(unloadable_inputs, tmp_path / "out")))
    assert main(["train", "--config", str(config_path)]) == 3


@pytest.mark.parametrize("path, value", [
    pytest.param(path, value, id=f"{path}={value!r}")
    for path, key in CONFIG_KEYS.items()
    for value in _bad_values(key)
])
def test_bad_value_for_any_key_exits_2_before_any_work(
    tmp_path, capsys, unloadable_inputs, path, value
):
    # lda reads the fewest keys: every key is checked whichever model runs
    config = base_config(unloadable_inputs, tmp_path / "out")
    section, _, name = path.rpartition(".")
    (config.setdefault(section, {}) if section else config)[name] = value
    assert_refused_before_any_work(tmp_path, capsys, config, path)


# the library objects whose fields declare `train` settings
SETTING_CLASSES = (Hyperparams, LoaderOptions, FocusConfig, AnnealConfig)


def test_config_keys_read_the_field_declarations():
    for cls in SETTING_CLASSES:
        for path, key in declared(cls).items():
            assert CONFIG_KEYS[path] is key, path


@pytest.mark.parametrize("cls, path, value", [
    pytest.param(cls, path, value, id=f"{path}={value!r}")
    for cls in SETTING_CLASSES
    for path, key in declared(cls).items()
    for value in _bad_values(key)
])
def test_library_object_refuses_what_the_config_refuses(cls, path, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be "):
        cls(**{path.removeprefix(cls.SECTION): value})


def _two_word_corpus(language):
    vocabulary = Vocabulary(language, [f"{language}_0", f"{language}_1"])
    return Corpus(language, vocabulary, [Document(f"{language}_d", language, [0, 1])])


def _refusing_calls():
    matrix = TransferMatrix("l1", "l2", np.array([0, 1]), np.array([0]), np.array([1.0]))
    dictionary = BilingualDictionary("l1", "l2", [(0, 0), (1, 1)])
    c1, c2 = _two_word_corpus("l1"), _two_word_corpus("l2")
    corpus, hp = BilingualCorpus(c1, c2, []), Hyperparams(k=2, train_iterations=1)
    for path, call in (
        ("anneal.temperature", lambda value: anneal_matrix(matrix, value)),
        ("dictionary_fraction", lambda value: subsample(dictionary, value, seed=0)),
        ("model", lambda value: models.train(value, corpus, hp)),
        ("hardlink_formulation",
         lambda value: models.train("lda", corpus, hp, hardlink_formulation=value)),
        ("numerator", lambda value: build_transfer_matrix(c1, c2, dictionary, value)),
    ):
        for value in _bad_values(CONFIG_KEYS[path]):
            yield pytest.param(path, call, value, id=f"{path}={value!r}")


@pytest.mark.parametrize("path, call, value", _refusing_calls())
def test_library_function_refuses_what_the_config_refuses(path, call, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be "):
        call(value)


# each parameter of the synthetic generators by name, with a small valid value
SYNTHETIC_ARGS = {
    "k": 2, "vocab_per_lang": 6, "docs_per_lang": 2, "doc_len": 3,
    "dict_coverage": 0.5, "topic_sharpness": 2.0, "seed": 0,
}


def _refusing_generators():
    phi = ev.generate_synthetic(**SYNTHETIC_ARGS).phi
    for name, key in ev.SYNTHETIC.items():
        yield name, key, lambda value, name=name: ev.generate_synthetic(
            **{**SYNTHETIC_ARGS, name: value})
    yield "n_pairs", ev.REFERENCE_PAIRS, lambda value: ev.generate_reference(phi, value, 3, 0)
    yield "types_per_side", ev.SYNTHETIC["doc_len"], lambda value: ev.generate_reference(
        phi, 2, value, 0)
    yield "c", ev.TOP_WORDS, lambda value: ev.top_words(np.array([0.5, 0.3, 0.2]), value)


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{name}={value!r}")
    for name, key, call in _refusing_generators()
    for value in _bad_values(key)
])
def test_generators_refuse_what_their_flags_refuse(name, call, value):
    # `synth` and `--top-words` read these keys; the library checks them
    # under its parameter names
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        call(value)


def test_library_objects_take_what_the_config_takes():
    # the defaults, an integral float for an int, and numpy scalars
    for cls in SETTING_CLASSES:
        assert cls() == cls(**{
            path.removeprefix(cls.SECTION): key.default for path, key in declared(cls).items()
        })
    hp = Hyperparams(k=np.int64(5), alpha=np.float64(0.5), seed=3.0, train_iterations=np.int32(7))
    assert (hp.k, hp.alpha, hp.seed, hp.train_iterations) == (5, 0.5, 3, 7)
    assert [type(value) for value in (hp.k, hp.alpha, hp.seed)] == [int, float, int]
    assert FocusConfig(threshold=np.float64(0.5)).threshold == 0.5
    assert AnnealConfig(interval=np.int64(4), temperature=1).interval == 4
    assert LoaderOptions(top_frequent=np.uint8(3)).top_frequent == 3


@pytest.mark.parametrize("overrides, paths, message", [
    ({"model": "softlink"}, {"dictionary": None}, "paths.dictionary is required"),
    ({"model": "voclink"}, {"dictionary": "missing.tsv"}, "paths.dictionary: missing.tsv does not"),
    ({"anneal": {"schedule": "adaptive"}}, {}, "only apply to soft-link models"),
    ({"model": "hardlink", "anneal": {"schedule": "fixed"}}, {}, "only apply to soft-link"),
    ({}, {"corpus1": None}, "paths.corpus1 is required"),
    ({}, {"corpus2": "missing.jsonl"}, "paths.corpus2: missing.jsonl does not exist"),
    ({}, {"language2": None}, "paths.language2 is required"),
    ({}, {"language1": ""}, "paths.language1 is required"),
    ({}, {"stopwords1": "missing.txt"}, "paths.stopwords1: missing.txt does not exist"),
    ({"model": "softlink", "anneal": {"schedule": "adaptive", "interval": 2, "lis_every": 3}}, {},
     "anneal.lis_every (3) must not exceed anneal.interval (2)"),
    # before any input is opened, even one that does not exist
    ({"model": "softlink"}, {
        "language2": "l1", "corpus1": "missing1.jsonl", "corpus2": "missing2.jsonl",
        "dictionary": "missing.tsv", "stopwords1": "missing.txt",
    }, "both corpora have language 'l1'"),
])
def test_rule_of_the_chosen_model_exits_2_before_any_work(
    tmp_path, capsys, unloadable_inputs, overrides, paths, message
):
    config = base_config(unloadable_inputs, tmp_path / "out", **overrides)
    config["paths"].update(paths)
    assert_refused_before_any_work(tmp_path, capsys, config, message)


@pytest.mark.parametrize("key", ["corpus2", "stopwords1", "dictionary"])
def test_input_name_too_long_to_look_up_exits_2(tmp_path, capsys, unloadable_inputs, key):
    config = base_config(unloadable_inputs, tmp_path / "out", model="softlink")
    config["paths"][key] = str(tmp_path / TOO_LONG)
    assert_refused_before_any_work(
        tmp_path, capsys, config, f"paths.{key}: ", os.strerror(errno.ENAMETOOLONG)
    )


@pytest.mark.parametrize("key, value", [
    ("corpus1", 5), ("stopwords1", 3), ("dictionary", ["dict.tsv"]), ("output_dir", 7),
    ("language1", 5),
])
def test_non_string_path_or_language_exits_2(tmp_path, toy_data, capsys, key, value):
    config = base_config(toy_data, tmp_path / "out", model="softlink")
    config["paths"][key] = value
    assert_refused_before_any_work(tmp_path, capsys, config, f"paths.{key} must be a string")


@pytest.mark.parametrize("model", ["lda", "softlink"])
@pytest.mark.parametrize("overrides, message", [
    ({"dictionary_fraction": 2.0}, "dictionary_fraction must be in (0, 1], got 2.0"),
    ({"dictionary_fraction": float("nan")}, "dictionary_fraction must be finite, got nan"),
    ({"focus": {"threshold": 2.0}}, "focus.threshold must be in [0, 1], got 2.0"),
    ({"anneal": {"stop_iteration": -5}}, "anneal.stop_iteration must be non-negative, got -5"),
])
def test_out_of_range_value_exits_2_for_any_model(
    tmp_path, toy_data, capsys, model, overrides, message
):
    config = base_config(toy_data, tmp_path / "out", model=model, **overrides)
    assert_refused_before_any_work(tmp_path, capsys, config, message)


@pytest.mark.parametrize("argv", [
    ["--k", "0"], ["--docs", "0"], ["--dict-coverage", "nan"], ["--vocab", "2"],
    ["--sharpness", "nan"], ["--sharpness", "-1"],
])
def test_rejected_synth_argument_creates_no_directory(tmp_path, capsys, argv):
    out_dir = tmp_path / "synth"
    assert main(["synth", *argv, "--output-dir", str(out_dir)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--k", "0", "--k must be at least 1, got 0"),
    ("--docs", "0", "--docs must be at least 1, got 0"),
    ("--doc-len", "0", "--doc-len must be at least 1, got 0"),
    ("--vocab", "0", "--vocab must be at least 1, got 0"),
    ("--vocab", "2", "--vocab must be at least --k (5), got 2"),
    ("--sharpness", "nan", "--sharpness must be positive, got nan"),
])
def test_rejected_synth_argument_is_named(tmp_path, capsys, flag, value, message):
    assert main(["synth", flag, value, "--output-dir", str(tmp_path / "synth")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"configuration error: {message}"


SYNTH_SIZES = "--k, --vocab, --docs, --doc-len or --reference-pairs"


@pytest.mark.parametrize("argv", [
    # sizes numpy refuses before allocating: past np.intp, or past a C long;
    # and reference-pair counts whose entry tables numpy could not shape,
    # refused before the first pair is drawn
    ["--vocab", "1" + "0" * 30],
    ["--docs", "1" + "0" * 19, "--k", "2", "--vocab", "2"],
    ["--doc-len", "1" + "0" * 20, "--k", "2", "--vocab", "2", "--docs", "2"],
    *(["--reference-pairs", pairs, "--k", "2", "--vocab", "2", "--docs", "2"]
      for pairs in ("1" + "0" * 20, str(np.iinfo(np.intp).max // 16 + 1))),
])
def test_synth_size_the_machine_cannot_shape_exits_2(tmp_path, capsys, argv):
    out_dir = tmp_path / "synth"
    assert main(["synth", *argv, "--output-dir", str(out_dir)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"configuration error: {SYNTH_SIZES} too large for this machine: ")
    assert not out_dir.exists()


def test_train_k_the_machine_cannot_shape_exits_2(tmp_path, toy_data, capsys):
    config = base_config(toy_data, tmp_path / "out", k=10**19)
    config_path = tmp_path / "huge_k.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: k, with the corpora and dictionary, too large")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error, code", [(MemoryError(), 2), (ValueError("unexpected"), 1)])
@pytest.mark.parametrize("command", ["synth", "train"])
def test_memory_running_out_while_drawing_or_training_exits_2(
    tmp_path, toy_data, capsys, monkeypatch, command, error, code
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(ev, "generate_synthetic", fail)
    monkeypatch.setattr(cli, "train", fail)
    out_dir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config(toy_data, out_dir)))
    argv = ["synth", "--output-dir", str(out_dir)] if command == "synth" else [
        "train", "--config", str(config_path)]
    assert main(argv) == code
    names = SYNTH_SIZES if command == "synth" else "k, with the corpora and dictionary,"
    if code == 2:
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"configuration error: {names} too large for this machine: out of memory"
    assert not out_dir.exists()


@pytest.mark.parametrize("model, name", [
    *((model, "alpha") for model in ("lda", "hardlink", "softlink", "voclink", "softlink_voclink")),
    # every toy word has a concept, so the tree kinds score no beta
    *((model, "beta") for model in ("lda", "hardlink", "softlink")),
    *((model, "beta_root") for model in ("voclink", "softlink_voclink")),
])
def test_prior_that_overflows_the_topic_scores_exits_2(tmp_path, toy_data, capsys, model, name):
    config = base_config(toy_data, tmp_path / "out", model=model, **{name: 1e308})
    config_path = tmp_path / "overflow.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    named = {"alpha": 0.1, "beta": 0.01}
    if model in models.TREE_KINDS:
        named.update(beta_root=0.01, beta_internal=100.0)
    named[name] = 1e308
    given = ", ".join(f"{key} {value!r}" for key, value in named.items())
    assert line == f"configuration error: a token's topic scores have no positive finite sum under {given}"
    assert not (tmp_path / "out").exists()


def test_large_prior_that_does_not_overflow_still_trains(tmp_path, toy_data):
    out = run_train(tmp_path, toy_data, "large_alpha", k=3, alpha=1e250)
    model = load_model(out / "model.json")
    totals = np.sum(model.counts["word_topic"], axis=1)
    assert (totals[:, :-1] > 0).any(axis=1).all()  # not every token on the last topic
    np.testing.assert_allclose(np.vstack(model.theta).sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("stripped", [(1,), (2,), (1, 2)])
def test_classify_refuses_a_test_corpus_without_labels(
    tmp_path, toy_data, capsys, monkeypatch, stripped
):
    out = run_train(tmp_path, toy_data, "model")
    paths = {}
    for side in (1, 2):
        paths[side] = toy_data[f"corpus{side}"]
        if side in stripped:
            records = [json.loads(line) for line in paths[side].read_text().splitlines()]
            paths[side] = tmp_path / f"unlabeled{side}.jsonl"
            write_jsonl(paths[side], [{k: v for k, v in r.items() if k != "labels"} for r in records])
    monkeypatch.setattr(cli, "infer_heldout", lambda *a, **kw: pytest.fail("inferred before the check"))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main([
        "eval", "--model", str(out / "model.json"), "--which", "classify",
        "--test-corpus1", str(paths[1]), "--test-corpus2", str(paths[2]), "--output", str(report),
    ]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    side = stripped[0]
    assert line == f"data error: --test-corpus{side} {paths[side]}: no document carries a label to classify"
    assert not report.exists()


@pytest.mark.parametrize("command, target", [
    ("infer", "missing/t.json"),
    ("infer", "."),
    ("eval", "missing/r.json"),
    ("transfer-build", "missing/x.tsv"),
    ("synth", "file/data"),
    ("train", "file/out"),
    *(pytest.param(command, TOO_LONG, id=f"{command}-name-too-long")
      for command in ("infer", "eval", "transfer-build", "synth", "train")),
])
def test_output_that_cannot_be_written_exits_2_with_one_line(
    tmp_path, capsys, unloadable_inputs, command, target
):
    # every input here exits 3 once read: infer, eval and transfer-build
    # check their output before reading any, and train fails to create its
    # output directory below a regular file before reading any too
    (tmp_path / "file").write_text("")
    output = str(tmp_path / target)
    argv = {
        "infer": ["infer", "--model", str(tmp_path / "missing.json"),
                  "--corpus", str(unloadable_inputs["corpus1"]), "--language", "l1",
                  "--output", output],
        "eval": ["eval", "--model", str(tmp_path / "missing.json"), "--which", "lis",
                 "--dictionary", str(unloadable_inputs["dictionary"]), "--output", output],
        "transfer-build": ["transfer-build",
                           "--corpus1", str(unloadable_inputs["corpus1"]),
                           "--corpus2", str(unloadable_inputs["corpus2"]),
                           "--language1", "l1", "--language2", "l2",
                           "--dictionary", str(unloadable_inputs["dictionary"]),
                           "--output", output],
        "synth": ["synth", "--output-dir", output],
    }.get(command)
    if command == "train":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_config(unloadable_inputs, output)))
        argv = ["train", "--config", str(config)]
    capsys.readouterr()
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: ") and output in line
    if target == TOO_LONG:
        assert line.endswith(os.strerror(errno.ENAMETOOLONG))
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("threshold", ["nan", "-0.5", "2"])
def test_transfer_build_checks_the_focal_threshold_before_loading(
    tmp_path, capsys, unloadable_inputs, threshold
):
    out_path = tmp_path / "matrix.tsv"
    code = main([
        "transfer-build",
        "--corpus1", str(unloadable_inputs["corpus1"]),
        "--corpus2", str(unloadable_inputs["corpus2"]),
        "--language1", "l1", "--language2", "l2",
        "--dictionary", str(unloadable_inputs["dictionary"]),
        "--focus-threshold", threshold, "--output", str(out_path),
    ])
    assert code == 2
    wanted = "finite, got nan" if threshold == "nan" else f"in [0, 1], got {float(threshold)}"
    assert capsys.readouterr().err == f"configuration error: --focus-threshold must be {wanted}\n"
    assert not out_path.exists()


def test_readme_lists_every_config_key_with_its_default_and_range():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config keys (`train`)")[1].split("```")[1]
    lines = {line.split()[0]: line for line in block.splitlines()[2:] if line[:1].strip()}
    assert list(lines) == list(CONFIG_KEYS)
    for path, key in CONFIG_KEYS.items():
        assert lines[path].split()[1] == json.dumps(key.default), path
        assert (key.bounds or "|".join(key.choices) or key.kind) in lines[path], path


@pytest.mark.parametrize("command", ["train", "infer", "eval", "synth"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x", ""])
def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    argv = {
        "train": ["train", "--config", "config.json"],
        "infer": ["infer", "--model", "m.json", "--corpus", "c.jsonl",
                  "--language", "l1", "--output", "theta.json"],
        "eval": ["eval", "--model", "m.json"],
        "synth": ["synth", "--output-dir", str(tmp_path / "synth")],
    }[command]
    assert main([*argv, "--seed", seed]) == 2
    wanted = "non-negative, got -1" if seed == "-1" else f"an integer, got {seed!r}"
    assert capsys.readouterr().err == f"configuration error: --seed must be {wanted}\n"
    assert not (tmp_path / "synth").exists()


def test_model_with_negative_seed_exits_3(tmp_path, toy_data, capsys):
    out = run_train(tmp_path, toy_data, "valid")
    payload = json.loads((out / "model.json").read_text())
    payload["hyperparams"]["seed"] = -1
    path = tmp_path / "negative_seed.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["inspect", "--model", str(path)]) == 3
    assert "seed must be non-negative" in capsys.readouterr().err


def _unreadable(path, kind):
    """Turn `path` into a directory or a file that is not UTF-8."""
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"id": "caf\xe9"}\n')
    return path


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
@pytest.mark.parametrize("loader", ["corpus", "stopwords", "dictionary", "reference"])
def test_text_input_that_cannot_be_read_is_a_data_error(tmp_path, loader, kind):
    path = _unreadable(tmp_path / "input", kind)
    vocabularies = (Vocabulary("l1", ["a0"]), Vocabulary("l2", ["b0"]))
    what, read = {
        "corpus": ("corpus file", lambda: load_corpus(path, "l1")),
        "stopwords": ("stopword file", lambda: load_stopwords(path)),
        "dictionary": ("dictionary file", lambda: load_dictionary(path, *vocabularies)),
        "reference": ("reference file", lambda: load_reference(path, *vocabularies)),
    }[loader]
    with pytest.raises(DataError, match=re.escape(f"{what} {path}")):
        read()


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
@pytest.mark.parametrize("key", ["corpus1", "stopwords2", "dictionary", "config"])
def test_train_input_that_cannot_be_read_exits_cleanly(tmp_path, toy_data, capsys, key, kind):
    bad = _unreadable(tmp_path / "input", kind)
    config = base_config(toy_data, tmp_path / "out", model="softlink")
    config_path = tmp_path / "config.json"
    if key == "config":
        config_path = bad
    else:
        config["paths"][key] = str(bad)
        config_path.write_text(json.dumps(config))
    code = 2 if key == "config" else 3
    assert main(["train", "--config", str(config_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error:" if code == 2 else "data error:")
    assert str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_reference_that_cannot_be_read_exits_3(tmp_path, toy_data, capsys, kind):
    out = run_train(tmp_path, toy_data, "valid")
    bad = _unreadable(tmp_path / "reference", kind)
    capsys.readouterr()
    assert main([
        "eval", "--model", str(out / "model.json"), "--which", "cnpmi",
        "--reference", str(bad), "--top-words", "5",
    ]) == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_top_words_below_one_exits_2(tmp_path, toy_data, capsys, count):
    out = run_train(tmp_path, toy_data, "valid")
    reference = tmp_path / "reference.jsonl"
    reference.write_text('{"l1_types": ["a0"], "l2_types": ["b0"]}\n')
    missing = tmp_path / "no_such_model.json"
    for argv in (
        ["eval", "--model", str(out / "model.json"), "--which", "cnpmi",
         "--reference", str(reference)],
        ["inspect", "--model", str(out / "model.json")],
        # checked whatever --which lists, and before any input is read
        ["eval", "--model", str(out / "model.json"), "--which", "lis",
         "--dictionary", str(toy_data["dictionary"])],
        ["eval", "--model", str(missing), "--which", "cnpmi", "--reference", str(reference)],
        ["inspect", "--model", str(missing)],
    ):
        capsys.readouterr()
        assert main([*argv, "--top-words", count]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: --top-words must be positive, got {count}\n"


def test_eval_top_words_above_the_vocabulary_exits_2_before_the_reference(tmp_path, capsys):
    k, size = 2, 500
    phi = np.full((k, size), 1.0 / size)
    model = models.TopicModel(
        model_kind="lda",
        hyperparams=models.Hyperparams(k=k, train_iterations=1),
        vocabularies=tuple(Vocabulary(lang, [f"{lang}_{i}" for i in range(size)]) for lang in ("l1", "l2")),
        phi=(phi, phi.copy()),
        theta=(np.zeros((0, k)), np.zeros((0, k))),
        doc_ids=([], []),
        doc_labels=([], []),
    )
    models.save_model(model, tmp_path / "model.json")
    argv = [
        "eval", "--model", str(tmp_path / "model.json"), "--which", "cnpmi",
        "--reference", str(tmp_path / "no_such_reference.jsonl"),
    ]
    assert main([*argv, "--top-words", "600"]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: --top-words 600 exceeds the 500-word vocabulary\n"
    # at the vocabulary size the check passes and the missing reference is read
    assert main([*argv, "--top-words", "500"]) == 3
    # `inspect` clamps to the vocabulary instead
    assert main(["inspect", "--model", str(tmp_path / "model.json"), "--top-words", "600"]) == 0


@pytest.mark.parametrize("section, value", [
    ("anneal", "x"), ("focus", 3), ("paths", []), ("anneal", None), ("focus", [0.5]),
])
def test_config_section_that_is_not_an_object_exits_2(
    tmp_path, toy_data, capsys, section, value
):
    config = base_config(toy_data, tmp_path / "out", model="softlink")
    config[section] = value
    config_path = tmp_path / "bad_section.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{section!r} must be an object" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [
    ("anneal", "temperature"), ("anneal", "interval"), ("focus", "threshold"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_anneal_and_focus_values_exit_2(tmp_path, toy_data, section, key, value):
    config = base_config(
        toy_data, tmp_path / "out", model="softlink", anneal={"schedule": "fixed"}
    )
    config[section] = {**config.get(section, {}), key: value}
    config_path = tmp_path / "nonfinite.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    assert not (tmp_path / "out").exists()


def _malformed_models(valid: dict):
    def without(key):
        payload = dict(valid)
        del payload[key]
        return payload

    def with_hp(**changes):
        return {**valid, "hyperparams": {**valid["hyperparams"], **changes}}

    def with_table(key, side, table):
        pair = list(valid[key])
        pair[side] = table
        return {**valid, key: pair}

    yield "not json", "{this is not json"
    yield "not an object", json.dumps([1, 2, 3])
    yield "only the version", json.dumps({"format_version": 1})
    for key in ("languages", "phi", "theta", "hyperparams", "vocabularies", "doc_ids"):
        yield f"missing {key}", json.dumps(without(key))
    yield "unknown hyperparameter", json.dumps(with_hp(gamma=1.0))
    yield "bad hyperparameter value", json.dumps(with_hp(alpha=-1.0))
    yield "string hyperparameter", json.dumps(with_hp(k="two"))
    yield "fractional topic count", json.dumps(with_hp(k=2.5))
    yield "non-finite hyperparameter", json.dumps(with_hp(beta=float("inf")))
    yield "phi missing a topic", json.dumps(with_table("phi", 0, valid["phi"][0][:1]))
    yield "phi with a short row", json.dumps(
        with_table("phi", 1, [row[:-1] for row in valid["phi"][1]])
    )
    yield "ragged phi", json.dumps(
        with_table("phi", 0, [valid["phi"][0][0], valid["phi"][0][1][:-1]])
    )
    yield "theta missing a document", json.dumps(with_table("theta", 0, valid["theta"][0][1:]))
    yield "theta of the wrong width", json.dumps(
        with_table("theta", 1, [row + [0.0] for row in valid["theta"][1]])
    )
    yield "negative phi", json.dumps(
        with_table("phi", 0, [[-x for x in row] for row in valid["phi"][0]])
    )
    yield "one language only", json.dumps({**valid, "languages": ["l1"]})
    yield "a language that is not a string", json.dumps({**valid, "languages": [1, "l2"]})
    yield "an empty language", json.dumps({**valid, "languages": ["", "l2"]})
    yield "the same language twice", json.dumps({**valid, "languages": ["l1", "l1"]})

    def with_entry(key, side, doc, value):
        pair = [list(entries) for entries in valid[key]]
        pair[side][doc] = value
        return json.dumps({**valid, key: pair})

    yield "an integer document id", with_entry("doc_ids", 0, 0, 7)
    yield "an empty document id", with_entry("doc_ids", 1, 2, "")
    yield "a null document id", with_entry("doc_ids", 0, 1, None)
    yield "labels missing a document", json.dumps(
        {**valid, "doc_labels": [valid["doc_labels"][0][1:], valid["doc_labels"][1]]}
    )
    yield "labels for an extra document", json.dumps(
        {**valid, "doc_labels": [valid["doc_labels"][0], valid["doc_labels"][1] + [None]]}
    )
    yield "labels that are a string", with_entry("doc_labels", 0, 0, "t0")
    yield "a label that is not a string", with_entry("doc_labels", 1, 0, ["t0", 1])

    def with_provenance(**changes):
        return json.dumps({**valid, "provenance": {**valid["provenance"], **changes}})

    yield "provenance a number", json.dumps({**valid, "provenance": 5})
    yield "provenance a list", json.dumps({**valid, "provenance": [1]})
    yield "provenance null", json.dumps({**valid, "provenance": None})
    yield "anneal events a number", json.dumps({**valid, "provenance": {"anneal_events": 3}})
    yield "schedule a number", json.dumps({**valid, "provenance": {"schedule": 7}})
    yield "an anneal event that is not an object", with_provenance(anneal_events=[1])
    yield "a negative seed in provenance", with_provenance(seed=-1)
    yield "a boolean seed in provenance", with_provenance(seed=True)
    yield "fractional train iterations in provenance", with_provenance(train_iterations=2.5)
    yield "a LIS value that is a string", with_provenance(lis_history=[0.5, "0.6"])
    yield "LIS history an object", with_provenance(lis_history={"1": 0.5})
    yield "an unknown hardlink formulation", with_provenance(hardlink_formulation="both")

    def with_counts(key, side=None, table=None):
        counts = dict(valid["counts"])
        if side is None:
            del counts[key]
        else:
            counts[key] = list(counts[key])
            counts[key][side] = table
        return json.dumps({**valid, "counts": counts})

    word_topic = valid["counts"]["word_topic"]
    doc_topic = valid["counts"]["doc_topic"]
    yield "counts not an object", json.dumps({**valid, "counts": [1, 2]})
    yield "counts without word_topic", with_counts("word_topic")
    yield "counts without doc_topic", with_counts("doc_topic")
    yield "word_topic for one language", json.dumps(
        {**valid, "counts": {**valid["counts"], "word_topic": word_topic[:1]}}
    )
    yield "word_topic missing a word", with_counts("word_topic", 1, word_topic[1][1:])
    yield "doc_topic of the wrong width", with_counts(
        "doc_topic", 0, [row + [0] for row in doc_topic[0]]
    )
    yield "ragged word_topic", with_counts(
        "word_topic", 0, [word_topic[0][0][:-1]] + word_topic[0][1:]
    )
    yield "negative count", with_counts(
        "doc_topic", 1, [[-1] + row[1:] for row in doc_topic[1]]
    )
    yield "fractional count", with_counts(
        "word_topic", 0, [[x + 0.5 for x in row] for row in word_topic[0]]
    )
    yield "string count", with_counts(
        "word_topic", 1, [["3"] + row[1:] for row in word_topic[1]]
    )
    yield "count beyond int64", with_counts(
        "word_topic", 0, [[2**63] + row[1:] for row in word_topic[0]]
    )
    # numpy reads true/false as 1/0 and a numeric string as its number
    yield "boolean count", with_counts(
        "word_topic", 1, [[True] + row[1:] for row in word_topic[1]]
    )
    yield "boolean doc_topic", with_counts(
        "doc_topic", 0, [[False] + row[1:] for row in doc_topic[0]]
    )
    yield "boolean phi", json.dumps(
        with_table("phi", 0, [[True] + row[1:] for row in valid["phi"][0]])
    )
    yield "boolean theta", json.dumps(
        with_table("theta", 1, [row[:-1] + [False] for row in valid["theta"][1]])
    )
    yield "string phi", json.dumps(
        with_table("phi", 1, [[str(row[0])] + row[1:] for row in valid["phi"][1]])
    )


def test_malformed_model_files_exit_3(tmp_path, toy_data, capsys):
    out = run_train(tmp_path, toy_data, "valid")
    valid = json.loads((out / "model.json").read_text())
    bad_path = tmp_path / "bad_model.json"
    for name, text in _malformed_models(valid):
        bad_path.write_text(text)
        for argv in (
            ["inspect", "--model", str(bad_path)],
            ["eval", "--model", str(bad_path), "--which", "lis",
             "--dictionary", str(toy_data["dictionary"])],
        ):
            capsys.readouterr()
            assert main(argv) == 3, (name, argv[0])
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1, name
    assert main(["inspect", "--model", str(tmp_path / "no_such_model.json")]) == 3


def test_model_without_count_tables_cannot_score_lis(tmp_path, toy_data, capsys):
    out = run_train(tmp_path, toy_data, "valid")
    payload = json.loads((out / "model.json").read_text())
    path = tmp_path / "no_counts.json"
    path.write_text(json.dumps({**payload, "counts": None}))
    assert main(["inspect", "--model", str(path)]) == 0
    capsys.readouterr()
    assert main([
        "eval", "--model", str(path), "--which", "lis",
        "--dictionary", str(toy_data["dictionary"]),
    ]) == 3
    assert "does not carry count tables" in capsys.readouterr().err


@pytest.mark.parametrize("word", [7, 1.5, True, None, ["a0"]])
def test_model_with_a_non_string_word_exits_3(tmp_path, toy_data, capsys, word):
    out = run_train(tmp_path, toy_data, "valid")
    payload = json.loads((out / "model.json").read_text())
    payload["vocabularies"][0][0] = word
    path = tmp_path / "bad_word.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="model vocabularies must be lists of words"):
        load_model(path)
    for argv in (
        ["inspect", "--model", str(path)],
        ["eval", "--model", str(path), "--which", "lis",
         "--dictionary", str(toy_data["dictionary"])],
        ["infer", "--model", str(path), "--corpus", str(toy_data["corpus1"]),
         "--language", "l1", "--output", str(tmp_path / "theta.json")],
    ):
        capsys.readouterr()
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err == "data error: model vocabularies must be lists of words\n", argv[0]
    assert not (tmp_path / "theta.json").exists()


@pytest.mark.parametrize("line, message", [
    ("5", "a reference pair must be a JSON object"),
    ('"a0 b0"', "a reference pair must be a JSON object"),
    ('[["a0"], ["b0"]]', "a reference pair must be a JSON object"),
    ('{"l1_types": "a0", "l2_types": ["b0"]}', "'l1_types' must be a list of strings"),
    ('{"l1_types": ["a0"], "l2_types": null}', "'l2_types' must be a list of strings"),
    ('{"l1_types": ["a0", 1], "l2_types": ["b0"]}', "'l1_types' must be a list of strings"),
    ('{"l1_types": ["a0"], "l2_types": [["b0"]]}', "'l2_types' must be a list of strings"),
])
def test_malformed_reference_file_exits_3(tmp_path, toy_data, capsys, line, message):
    out = run_train(tmp_path, toy_data, "valid")
    reference = tmp_path / "reference.jsonl"
    reference.write_text('{"l1_types": ["a0"], "l2_types": ["b0"]}\n' + line + "\n")
    capsys.readouterr()
    # five top words fit the 12-word vocabulary, so the reference is read
    assert main([
        "eval", "--model", str(out / "model.json"), "--which", "cnpmi",
        "--reference", str(reference), "--top-words", "5",
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{reference}:2: {message}" in err


# Values that are no syntax error but that no loader may take: nesting
# deeper than the decoder's recursion limit (900 levels still decode), an
# integer longer than the interpreter converts, and a lone surrogate
# escape, whose string cannot be printed or written as UTF-8.
UNDECODABLE = {
    "nested too deeply": ("[" * 5000 + "]" * 5000, ": JSON nested too deeply"),
    "5000 digits": ("7" * 5000, "(Exceeds the limit (4300 digits) for integer string conversion"),
    "lone surrogate": ('["a0", "\\ud800"]', "surrogates not allowed"),
}


@pytest.mark.parametrize("value", UNDECODABLE)
@pytest.mark.parametrize("case", [
    "inspect --model", "eval --model", "train --config", "train corpus1", "infer --corpus",
    "eval --reference",
])
def test_undecodable_json_input_exits_with_one_line(tmp_path, toy_data, case, value):
    bad, message = UNDECODABLE[value]
    model = run_train(tmp_path, toy_data, "valid") / "model.json"
    path = tmp_path / "bad.json"
    path.write_text({
        "inspect --model": '{"format_version": 1, "phi": ' + bad + "}",
        "eval --model": '{"format_version": 1, "phi": ' + bad + "}",
        "train --config": '{"seed": ' + bad + "}",
        "train corpus1": '{"id": "x0", "lang": "l1", "tokens": ' + bad + "}\n",
        "infer --corpus": '{"id": "x0", "lang": "l1", "tokens": ' + bad + "}\n",
        "eval --reference": '{"l1_types": ' + bad + ', "l2_types": ["b0"]}\n',
    }[case])
    config = base_config(toy_data, tmp_path / "out")
    config["paths"]["corpus1"] = str(path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    output = tmp_path / "output.json"
    argv = {
        "inspect --model": ["inspect", "--model", path],
        "eval --model": ["eval", "--model", path, "--which", "lis",
                         "--dictionary", toy_data["dictionary"], "--output", output],
        "train --config": ["train", "--config", path],
        "train corpus1": ["train", "--config", tmp_path / "config.json"],
        "infer --corpus": ["infer", "--model", model, "--corpus", path, "--language", "l1",
                           "--output", output],
        "eval --reference": ["eval", "--model", model, "--which", "cnpmi", "--reference", path,
                             "--top-words", "5", "--output", output],
    }[case]
    result = subprocess.run(
        [sys.executable, "-m", "multitopic.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    code, kind = (2, "configuration error") if case == "train --config" else (3, "data error")
    assert result.returncode == code, result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"{kind}: ") and str(path) in line and message in line, line
    assert result.stdout == ""
    assert not output.exists() and not (tmp_path / "out").exists()
