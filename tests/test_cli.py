"""End-to-end command-line behavior: wiring, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multitopic import evaluate as ev
from multitopic import _native, models
from multitopic.cli import CONFIG_KEYS, _write_manifest, main
from multitopic.corpus import LoaderOptions, Vocabulary, load_corpus, load_stopwords
from multitopic.dictionary import load_dictionary
from multitopic.errors import DataError
from multitopic.evaluate import load_reference
from multitopic.models import load_model

SRC = Path(__file__).resolve().parent.parent / "src"


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
    assert "top_frequent must be non-negative, got -4" in capsys.readouterr().err
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
    env = {"PATH": "", "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path / "cache")}
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
            "--reference", str(reference), *output,
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
        models, "_plain_sweep", lambda *a: pytest.fail("a sweep ran before the check")
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
        values = ["1", True, None, [1], float("nan"), float("inf"), float("-inf"), cast(low) - 1]
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
])
def test_rule_of_the_chosen_model_exits_2_before_any_work(
    tmp_path, capsys, unloadable_inputs, overrides, paths, message
):
    config = base_config(unloadable_inputs, tmp_path / "out", **overrides)
    config["paths"].update(paths)
    assert_refused_before_any_work(tmp_path, capsys, config, message)


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


@pytest.mark.parametrize("command, target", [
    ("infer", "missing/t.json"),
    ("infer", "."),
    ("eval", "missing/r.json"),
    ("transfer-build", "missing/x.tsv"),
    ("synth", "file/data"),
    ("train", "file/out"),
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
    assert "focal threshold must be in [0, 1]" in capsys.readouterr().err
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
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err
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
        "--reference", str(bad),
    ]) == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_top_words_below_one_exits_2(tmp_path, toy_data, capsys, count):
    out = run_train(tmp_path, toy_data, "valid")
    reference = tmp_path / "reference.jsonl"
    reference.write_text('{"l1_types": ["a0"], "l2_types": ["b0"]}\n')
    for argv in (
        ["eval", "--model", str(out / "model.json"), "--which", "cnpmi",
         "--reference", str(reference)],
        ["inspect", "--model", str(out / "model.json")],
    ):
        capsys.readouterr()
        assert main([*argv, "--top-words", count]) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "number of top words must be positive" in captured.err


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
            assert err.startswith("data error:") and "Traceback" not in err, name
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
    assert main([
        "eval", "--model", str(out / "model.json"), "--which", "cnpmi",
        "--reference", str(reference),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{reference}:2: {message}" in err
