"""Loader fuzzing: a valid corpus JSON-lines file, dictionary TSV or
model file, mutated at the byte level, loads as a valid
object (every string in it encodes as UTF-8) or raises `DataError`, and
nothing else. The mutations:
- a byte flipped, or the file truncated;
- a bracket, brace, quote, BOM, tab, newline, backslash or lone
  surrogate escape inserted;
- a run of nested brackets inserted: a few levels, 900 levels, which the
  decoder still reads, or 5000, which it refuses;
- a run of digits inserted: 3, or 5000, past the interpreter's limit on
  converting a decimal integer."""

import json
import math
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multitopic.corpus import (
    Corpus,
    LoaderOptions,
    Vocabulary,
    load_corpus,
    pair_corpora,
)
from multitopic.dictionary import load_dictionary
from multitopic.errors import DataError
from multitopic.models import Hyperparams, load_model, save_model, train

SETTINGS = settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
INSERTS = (b"[", b"]", b"{", b"}", b'"', b"\xef\xbb\xbf", b"\t", b"\n", b"\\", b"\\udc00")
VOCABULARIES = (
    Vocabulary("l1", [f"a{i}" for i in range(6)]),
    Vocabulary("l2", [f"b{i}" for i in range(6)]),
)


def corpus_lines(language: str, prefix: str) -> str:
    rng = np.random.default_rng(len(prefix))
    records = [
        {
            "id": f"{language}-{d}",
            "lang": language,
            "tokens": [f"{prefix}{i}" for i in rng.integers(0, 6, size=5)],
            "labels": [f"t{d % 2}"],
            "link": f"p{d}",
        }
        for d in range(4)
    ]
    return "".join(json.dumps(rec) + "\n" for rec in records)


@cache
def valid_files() -> dict[str, bytes]:
    """One valid file of each kind, the model trained on the two corpora."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = []
        for language, prefix in (("l1", "a"), ("l2", "b")):
            path = tmp / f"{language}.jsonl"
            path.write_text(corpus_lines(language, prefix))
            sides.append(load_corpus(path, language, LoaderOptions(top_frequent=0)))
        model = train("lda", pair_corpora(*sides), Hyperparams(k=2, train_iterations=2, seed=1))
        save_model(model, tmp / "model.json")
        return {
            "corpus": (tmp / "l1.jsonl").read_bytes(),
            "dictionary": b"# l1\tl2\n" + b"".join(b"a%d\tb%d\n" % (i, i) for i in range(6)),
            "model": (tmp / "model.json").read_bytes(),
        }


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "truncate", "insert", "nest", "digits"]))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(INSERTS))
        elif kind == "nest":
            depth = draw(st.sampled_from([3, 900, 5000]))
            data[at:at] = b"[" * depth + b"]" * depth
        else:
            data[at:at] = b"7" * draw(st.sampled_from([3, 5000]))
    return bytes(data)


def check_text(*strings) -> None:
    """Every string can be printed and written: it encodes as UTF-8."""
    for text in strings:
        text.encode("utf-8")


def check_corpus(corpus: Corpus) -> None:
    assert isinstance(corpus.language, str) and corpus.language
    check_text(corpus.language, *corpus.vocabulary.word_of_id)
    for doc in corpus.documents:
        check_text(doc.doc_id, *(doc.labels or ()), *([doc.link_id] if doc.link_id else []))
    assert all(d.language == corpus.language for d in corpus.documents)
    ids = [d.doc_id for d in corpus.documents]
    assert len(set(ids)) == len(ids) and all(isinstance(i, str) and i for i in ids)
    for doc in corpus.documents:
        assert all(type(t) is int and 0 <= t < corpus.vocabulary.size for t in doc.tokens)


def check_dictionary(dictionary) -> None:
    sizes = np.array([v.size for v in VOCABULARIES])
    assert ((dictionary.words >= 0) & (dictionary.words < sizes)).all()


def check_model(model) -> None:
    k = model.hyperparams.k
    for side in (0, 1):
        check_text(model.languages[side], *model.vocabularies[side].word_of_id)
        assert all(isinstance(doc_id, str) and doc_id for doc_id in model.doc_ids[side])
        check_text(*model.doc_ids[side])
        assert len(model.doc_labels[side]) == len(model.doc_ids[side])
        for labels in model.doc_labels[side]:
            assert labels is None or isinstance(labels, list) and all(
                isinstance(label, str) for label in labels
            )
            check_text(*(labels or ()))
    for side in (0, 1):
        assert model.phi[side].shape == (k, model.vocabularies[side].size)
        assert model.theta[side].shape == (len(model.doc_ids[side]), k)
        assert np.isfinite(model.phi[side]).all() and np.isfinite(model.theta[side]).all()
    check_provenance(model.provenance)


def check_provenance(provenance) -> None:
    """The keys `train` writes hold the types it writes."""
    assert isinstance(provenance, dict)
    for key in ("seed", "train_iterations"):
        assert type(provenance.get(key, 0)) is int and provenance.get(key, 0) >= 0
    assert provenance.get("schedule") is None or isinstance(provenance["schedule"], dict)
    events = provenance.get("anneal_events", [])
    assert isinstance(events, list) and all(isinstance(event, dict) for event in events)
    lis = provenance.get("lis_history", [])
    assert isinstance(lis, list) and all(
        type(x) is int or type(x) is float and math.isfinite(x) for x in lis
    )
    assert provenance.get("hardlink_formulation", "joint") in ("conditional", "joint")


LOADERS = {
    "corpus": (lambda path: load_corpus(path, "l1", LoaderOptions(top_frequent=0)), check_corpus),
    "dictionary": (lambda path: load_dictionary(path, *VOCABULARIES), check_dictionary),
    "model": (load_model, check_model),
}


@pytest.mark.parametrize("kind", LOADERS)
def test_unmutated_file_loads(tmp_path, kind):
    load, check = LOADERS[kind]
    path = tmp_path / "input"
    path.write_bytes(valid_files()[kind])
    check(load(path))


@pytest.mark.parametrize("kind", LOADERS)
def test_mutated_file_loads_or_is_a_data_error(kind):
    load, check = LOADERS[kind]

    @SETTINGS
    @given(data=mutated(valid_files()[kind]))
    def run(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            try:
                loaded = load(path)
            except DataError as exc:
                assert "\n" not in str(exc)
                return
            check(loaded)

    run()
