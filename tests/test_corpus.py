"""Corpus loading, vocabulary filtering, hard-link pairing, round trips,
and the token table every constructor builds."""

import dataclasses
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitopic.corpus import (
    LoaderOptions,
    load_corpus,
    load_stopwords,
    pair_corpora,
    write_corpus_jsonl,
)
from multitopic.errors import ConfigError, DataError
from multitopic.evaluate import generate_synthetic
from oracles import vocabulary_reference


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_no_filtering_keeps_all_distinct_tokens(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["cat", "dog"]},
            {"id": "d2", "lang": "en", "tokens": ["dog", "bird"]},
            {"id": "d3", "lang": "en", "tokens": ["cat"]},
        ],
    )
    corpus = load_corpus(path, "en", LoaderOptions(top_frequent=0))
    assert sorted(corpus.vocabulary.word_of_id) == ["bird", "cat", "dog"]
    assert corpus.token_total == 5
    # first-occurrence id order
    assert corpus.vocabulary.word_of_id == ["cat", "dog", "bird"]


def test_top_frequent_removal_drops_most_frequent_type(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["the", "cat", "the"]},
            {"id": "d2", "lang": "en", "tokens": ["the", "dog"]},
        ],
    )
    corpus = load_corpus(path, "en", LoaderOptions(top_frequent=1))
    assert "the" not in corpus.vocabulary.id_of_word
    for doc in corpus.documents:
        words = [corpus.vocabulary.word_of_id[t] for t in doc.tokens]
        assert "the" not in words


def test_stopwords_removed_before_frequency_cut(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["of", "of", "of", "cat", "cat", "dog"]},
        ],
    )
    stops = tmp_path / "stop.txt"
    stops.write_text("of\n")
    corpus = load_corpus(
        path, "en", LoaderOptions(stopwords=load_stopwords(stops), top_frequent=1)
    )
    # "of" goes via stopwords; the frequency cut then removes "cat", not "of"
    assert sorted(corpus.vocabulary.word_of_id) == ["dog"]


def test_desk_corpus_matches_independent_counting_script(tmp_path):
    """Oracle: a standalone token-counting pass over the raw file."""
    rng = np.random.default_rng(42)
    words = [f"w{i}" for i in range(300)]
    records = []
    for d in range(2000):
        n = int(rng.integers(5, 40))
        toks = [words[int(i)] for i in rng.integers(0, 300, size=n)]
        records.append({"id": f"doc{d}", "lang": "xx", "tokens": toks})
    path = tmp_path / "desk.jsonl"
    write_jsonl(path, records)

    # independent count: plain dict tally over the raw records
    freq = {}
    for rec in records:
        for tok in rec["tokens"]:
            freq[tok] = freq.get(tok, 0) + 1
    cut = {w for w, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:100]}
    expected_vocab = set(freq) - cut
    expected_lengths = [
        sum(1 for t in rec["tokens"] if t not in cut) for rec in records
    ]

    corpus = load_corpus(path, "xx", LoaderOptions(top_frequent=100, keep_empty=True))
    assert set(corpus.vocabulary.word_of_id) == expected_vocab
    assert [len(d.tokens) for d in corpus.documents] == expected_lengths
    assert corpus.token_total == sum(expected_lengths)


LETTERS = "abcde"  # few types, so counts tie often


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(st.sampled_from(LETTERS), max_size=8), min_size=1, max_size=8),
    st.frozensets(st.sampled_from(LETTERS)), st.integers(0, 2),
    st.integers(0, len(LETTERS) + 2), st.booleans(),
)
def test_vocabulary_and_ids_match_the_two_pass_reference(
    docs, stopwords, frequent_stops, top_frequent, keep_empty
):
    """Stopwords, some of them among the most frequent types, then a cut
    from none to past the type count: the vocabulary in id order and
    every kept document's ids match `vocabulary_reference`."""
    counts = Counter(t for tokens in docs for t in tokens)
    ranked = sorted(counts, key=lambda w: (-counts[w], w))
    stopwords |= frozenset(ranked[:frequent_stops])
    words = vocabulary_reference(docs, stopwords, top_frequent)
    ids = {w: i for i, w in enumerate(words)}
    expected = [[ids[t] for t in tokens if t in ids] for tokens in docs]
    expected = [tokens for tokens in expected if tokens or keep_empty]
    options = LoaderOptions(stopwords=stopwords, top_frequent=top_frequent, keep_empty=keep_empty)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        write_jsonl(path, [{"id": f"d{i}", "lang": "xx", "tokens": t} for i, t in enumerate(docs)])
        if not expected:
            with pytest.raises(DataError, match="no documents left after filtering"):
                load_corpus(path, "xx", options)
            return
        corpus = load_corpus(path, "xx", options)
    assert corpus.vocabulary.word_of_id == words
    assert [doc.tokens for doc in corpus.documents] == expected


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "lang": "en", "tokens": ["x"]}\nnot json\n')
    with pytest.raises(DataError, match=":2"):
        load_corpus(path, "en", LoaderOptions(top_frequent=0))


def test_duplicate_doc_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "lang": "en", "tokens": ["x"]},
            {"id": "a", "lang": "en", "tokens": ["y"]},
        ],
    )
    with pytest.raises(DataError, match="duplicate doc_id"):
        load_corpus(path, "en", LoaderOptions(top_frequent=0))


def test_empty_after_filtering_rejected_unless_flagged(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "a", "lang": "en", "tokens": ["the"]}])
    stop = frozenset(["the"])
    with pytest.raises(DataError, match="no documents"):
        load_corpus(path, "en", LoaderOptions(stopwords=stop, top_frequent=0))
    corpus = load_corpus(
        path, "en", LoaderOptions(stopwords=stop, top_frequent=0, keep_empty=True)
    )
    assert corpus.documents[0].tokens == []


def test_language_mismatch_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "a", "lang": "de", "tokens": ["x"]}])
    with pytest.raises(DataError, match="language"):
        load_corpus(path, "en", LoaderOptions(top_frequent=0))


def test_heldout_encoding_drops_oov(tmp_path):
    train_path = tmp_path / "train.jsonl"
    write_jsonl(train_path, [{"id": "a", "lang": "en", "tokens": ["cat", "dog"]}])
    corpus = load_corpus(train_path, "en", LoaderOptions(top_frequent=0))
    test_path = tmp_path / "test.jsonl"
    write_jsonl(test_path, [{"id": "t", "lang": "en", "tokens": ["cat", "unseen"]}])
    heldout = load_corpus(
        test_path, "en", LoaderOptions(top_frequent=0, keep_empty=True),
        vocabulary=corpus.vocabulary,
    )
    assert heldout.documents[0].tokens == [corpus.vocabulary.id_of_word["cat"]]


def make_corpus(tmp_path, name, lang, specs):
    path = tmp_path / name
    write_jsonl(
        path,
        [
            {"id": doc_id, "lang": lang, "tokens": ["w"], **extra}
            for doc_id, extra in specs
        ],
    )
    return load_corpus(path, lang, LoaderOptions(top_frequent=0))


def test_pairing_no_links(tmp_path):
    c1 = make_corpus(tmp_path, "c1.jsonl", "en", [("a", {}), ("b", {})])
    c2 = make_corpus(tmp_path, "c2.jsonl", "de", [("x", {}), ("y", {})])
    assert pair_corpora(c1, c2).hard_links == []


def test_pairing_full_bijection(tmp_path):
    c1 = make_corpus(
        tmp_path, "c1.jsonl", "en", [("a", {"link": "p1"}), ("b", {"link": "p2"})]
    )
    c2 = make_corpus(
        tmp_path, "c2.jsonl", "de", [("x", {"link": "p2"}), ("y", {"link": "p1"})]
    )
    assert pair_corpora(c1, c2).hard_links == [(0, 1), (1, 0)]


def test_pairing_partial_matches_hand_count(tmp_path):
    """Oracle: count matched link ids by set intersection over the raw specs."""
    rng = np.random.default_rng(7)
    spec1 = []
    spec2 = []
    for i in range(100):
        extra1 = {"link": f"L{i}"} if rng.random() < 0.3 else {}
        extra2 = {"link": f"L{i}"} if rng.random() < 0.3 else {}
        spec1.append((f"a{i}", extra1))
        spec2.append((f"b{i}", extra2))
    expected = len(
        {e["link"] for _, e in spec1 if e} & {e["link"] for _, e in spec2 if e}
    )
    c1 = make_corpus(tmp_path, "c1.jsonl", "en", spec1)
    c2 = make_corpus(tmp_path, "c2.jsonl", "de", spec2)
    bc = pair_corpora(c1, c2)
    assert len(bc.hard_links) == expected
    # each document participates in at most one link
    assert len({i for i, _ in bc.hard_links}) == len(bc.hard_links)
    assert len({j for _, j in bc.hard_links}) == len(bc.hard_links)


def test_pairing_duplicate_link_id_same_side_rejected(tmp_path):
    c1 = make_corpus(
        tmp_path, "c1.jsonl", "en", [("a", {"link": "p"}), ("b", {"link": "p"})]
    )
    c2 = make_corpus(tmp_path, "c2.jsonl", "de", [("x", {"link": "p"})])
    with pytest.raises(DataError, match="duplicate link"):
        pair_corpora(c1, c2)


def test_pairing_same_language_rejected(tmp_path):
    c1 = make_corpus(tmp_path, "c1.jsonl", "en", [("a", {})])
    c2 = make_corpus(tmp_path, "c2.jsonl", "en", [("x", {})])
    with pytest.raises(ConfigError):
        pair_corpora(c1, c2)


def test_jsonl_round_trip_keeps_documents_labels_and_links(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["cat", "dog", "cat"],
             "labels": ["pets", "animals"], "link": "p1"},
            {"id": "d2", "lang": "en", "tokens": ["bird"]},
            {"id": "d3", "lang": "en", "tokens": []},
        ],
    )
    options = LoaderOptions(top_frequent=0, keep_empty=True)
    corpus = load_corpus(path, "en", options)
    out = tmp_path / "out.jsonl"
    write_corpus_jsonl(corpus, out)
    reloaded = load_corpus(out, "en", options)
    assert reloaded.vocabulary.word_of_id == corpus.vocabulary.word_of_id == ["cat", "dog", "bird"]
    assert [d.doc_id for d in reloaded.documents] == ["d1", "d2", "d3"]
    assert [d.tokens for d in reloaded.documents] == [d.tokens for d in corpus.documents]
    assert [d.labels for d in reloaded.documents] == [frozenset({"pets", "animals"}), None, None]
    assert [d.link_id for d in reloaded.documents] == ["p1", None, None]
    # writing the reloaded corpus again is byte-stable
    again = tmp_path / "again.jsonl"
    write_corpus_jsonl(reloaded, again)
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("labels", ["sports", {"a": 1}, [1, 2], ["ok", None], 7, ""])
def test_jsonl_labels_must_be_a_list_of_strings(tmp_path, labels):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["cat"], "labels": ["pets"]},
            {"id": "d2", "lang": "en", "tokens": ["dog"], "labels": labels},
        ],
    )
    with pytest.raises(DataError, match=":2: 'labels' must be a list of strings"):
        load_corpus(path, "en", LoaderOptions(top_frequent=0))


def test_jsonl_labels_absent_null_or_empty_mean_unlabeled(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["cat"]},
            {"id": "d2", "lang": "en", "tokens": ["dog"], "labels": None},
            {"id": "d3", "lang": "en", "tokens": ["dog"], "labels": []},
            {"id": "d4", "lang": "en", "tokens": ["dog"], "labels": ["b", "a", "b"]},
        ],
    )
    corpus = load_corpus(path, "en", LoaderOptions(top_frequent=0))
    assert [d.labels for d in corpus.documents] == [None, None, None, frozenset({"a", "b"})]


@pytest.mark.parametrize("link", [["p"], 7, 1.5, True, {"id": "p"}])
def test_jsonl_link_must_be_a_string_or_null(tmp_path, link):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["cat"], "link": "p1"},
            {"id": "d2", "lang": "en", "tokens": ["dog"], "link": link},
        ],
    )
    with pytest.raises(DataError, match=":2: 'link' must be a string or null"):
        load_corpus(path, "en", LoaderOptions(top_frequent=0))


def test_jsonl_link_absent_null_or_empty_mean_unlinked(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "lang": "en", "tokens": ["cat"]},
            {"id": "d2", "lang": "en", "tokens": ["dog"], "link": None},
            {"id": "d3", "lang": "en", "tokens": ["dog"], "link": ""},
            {"id": "d4", "lang": "en", "tokens": ["dog"], "link": "7"},
        ],
    )
    corpus = load_corpus(path, "en", LoaderOptions(top_frequent=0))
    assert [d.link_id for d in corpus.documents] == [None, None, None, "7"]


def assert_table_holds_the_documents(corpus):
    tokens, doc_start = corpus.tokens, corpus.doc_start
    assert tokens.dtype == doc_start.dtype == np.int64
    assert len(doc_start) == len(corpus) + 1
    assert doc_start[0] == 0 and doc_start[-1] == len(tokens) == corpus.token_total
    for d, doc in enumerate(corpus.documents):
        assert tokens[doc_start[d]:doc_start[d + 1]].tolist() == doc.tokens
    assert not tokens.flags.writeable and not doc_start.flags.writeable


WORDS = st.sampled_from([f"w{i}" for i in range(6)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(WORDS, max_size=6), min_size=1, max_size=6),
    st.lists(st.lists(WORDS | st.just("unseen"), max_size=6), min_size=1, max_size=4),
    st.frozensets(WORDS), st.integers(0, 3), st.booleans(), st.data(),
)
def test_every_constructor_builds_the_token_table_of_its_documents(
    docs, heldout_docs, stopwords, top_frequent, keep_empty, data
):
    """load_corpus (stopwords, top_frequent, keep_empty, held-out encoding
    that drops out-of-vocabulary tokens), generate_synthetic and
    dataclasses.replace with a subset of documents."""
    options = LoaderOptions(stopwords=stopwords, top_frequent=top_frequent, keep_empty=keep_empty)
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "train.jsonl", Path(tmp) / "heldout.jsonl"
        for path, token_lists in zip(paths, (docs, heldout_docs)):
            write_jsonl(path, [
                {"id": f"d{i}", "lang": "l1", "tokens": tokens}
                for i, tokens in enumerate(token_lists)
            ])
        try:
            corpus = load_corpus(paths[0], "l1", options)
        except DataError:  # filtering emptied every document
            corpus = load_corpus(paths[0], "l1", dataclasses.replace(options, keep_empty=True))
        heldout = load_corpus(
            paths[1], "l1", LoaderOptions(top_frequent=0, keep_empty=True), corpus.vocabulary
        )
    subset = data.draw(st.lists(st.sampled_from(corpus.documents), max_size=len(corpus)))
    sizes = (data.draw(st.integers(low, 8)) for low in (2, 1, 1))
    synthetic = generate_synthetic(
        2, *sizes, dict_coverage=0.5, topic_sharpness=8.0, seed=data.draw(st.integers(0, 2**16))
    ).corpus
    for built in (
        corpus, heldout, dataclasses.replace(corpus, documents=subset),
        synthetic.side1, synthetic.side2,
    ):
        assert_table_holds_the_documents(built)
