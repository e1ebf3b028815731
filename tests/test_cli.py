"""End-to-end command-line behavior: wiring, determinism, exit codes."""

import json

import numpy as np
import pytest

from multitopic.cli import main
from multitopic.corpus import LoaderOptions, load_corpus
from multitopic.dictionary import load_dictionary
from multitopic.evaluate import load_reference
from multitopic.models import load_model


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


def test_inspect_prints_top_words(tmp_path, toy_data, capsys):
    out = run_train(tmp_path, toy_data, "inspectable")
    assert main(["inspect", "--model", str(out / "model.json")]) == 0
    printed = capsys.readouterr().out
    assert "topic" in printed and "l1" in printed


def test_exit_code_2_on_config_errors(tmp_path, toy_data):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "nonesuch"}))
    assert main(["train", "--config", str(bad)]) == 2
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"modle": "lda"}))
    assert main(["train", "--config", str(unknown_key)]) == 2


def test_exit_code_3_on_data_errors(tmp_path, toy_data):
    broken = tmp_path / "broken.jsonl"
    broken.write_text("this is not json\n")
    config = base_config(toy_data, tmp_path / "out")
    config["paths"]["corpus1"] = str(broken)
    config_path = tmp_path / "broken_config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 3


@pytest.mark.parametrize("name", ["alpha", "beta", "beta_root", "beta_internal"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_hyperparameter_exits_2(tmp_path, toy_data, name, value):
    config = base_config(toy_data, tmp_path / "out", **{name: value})
    config_path = tmp_path / "nonfinite.json"
    # json writes NaN/Infinity literals, which json.load reads back as floats
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 2
    assert not (tmp_path / "out" / "model.json").exists()


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
    assert not (tmp_path / "out" / "model.json").exists()


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
    assert not (tmp_path / "out" / "model.json").exists()


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
    assert not (tmp_path / "out" / "model.json").exists()


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
