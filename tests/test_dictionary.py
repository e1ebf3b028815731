"""Dictionary loading, vocabulary intersection, subsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitopic.corpus import Vocabulary
from multitopic.dictionary import BilingualDictionary, grouped, load_dictionary, subsample
from multitopic.errors import ConfigError, DataError
from oracles import dictionary_pairs_reference, pair_set


def vocab(lang, words):
    return Vocabulary(lang, list(words))


def write_tsv(path, pairs, header=True):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("# comment line\n")
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def test_load_keeps_in_vocabulary_pairs(tmp_path):
    path = tmp_path / "d.tsv"
    write_tsv(path, [("cat", "gato"), ("dog", "perro")])
    d = load_dictionary(path, vocab("en", ["cat", "dog"]), vocab("es", ["gato", "perro"]))
    assert len(d) == 2
    assert pair_set(d) == {(0, 0), (1, 1)}


def test_load_drops_oov_pairs(tmp_path):
    path = tmp_path / "d.tsv"
    write_tsv(path, [("cat", "gato")])
    d = load_dictionary(path, vocab("en", ["cat"]), vocab("es", ["perro"]))
    assert len(d) == 0  # warning, not an error


def test_load_against_desk_vocabularies_matches_set_intersection(tmp_path):
    """Oracle: independent set-intersection count over the raw pairs."""
    rng = np.random.default_rng(3)
    v1_words = [f"a{i}" for i in range(400)]
    v2_words = [f"b{i}" for i in range(400)]
    pairs = []
    for _ in range(1000):
        pairs.append((f"a{rng.integers(0, 600)}", f"b{rng.integers(0, 600)}"))
    path = tmp_path / "d.tsv"
    write_tsv(path, pairs)

    v1 = vocab("l1", v1_words)
    v2 = vocab("l2", v2_words)
    expected = {
        (a, b) for a, b in pairs if a in set(v1_words) and b in set(v2_words)
    }
    d = load_dictionary(path, v1, v2)
    assert len(d) == len(expected)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("cat\tgato\nonly_one_column\n")
    with pytest.raises(DataError, match=":2"):
        load_dictionary(path, vocab("en", ["cat"]), vocab("es", ["gato"]))


def test_multiword_entries_dropped(tmp_path):
    path = tmp_path / "d.tsv"
    write_tsv(path, [("hot dog", "perrito"), ("cat", "gato")])
    d = load_dictionary(
        path, vocab("en", ["cat", "hot dog"]), vocab("es", ["gato", "perrito"])
    )
    assert pair_set(d) == {(0, 0)}


def test_duplicate_pairs_collapsed(tmp_path):
    path = tmp_path / "d.tsv"
    write_tsv(path, [("cat", "gato"), ("cat", "gato")])
    d = load_dictionary(path, vocab("en", ["cat"]), vocab("es", ["gato"]))
    assert len(d) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("abcx"), st.sampled_from("pqry")), max_size=20))
def test_pairs_match_the_seen_set_reference(tmp_path_factory, entries):
    """Repeated pairs and out-of-vocabulary words (x, y): the concepts, in
    order, match `dictionary_pairs_reference`."""
    path = tmp_path_factory.mktemp("dictionary") / "d.tsv"
    write_tsv(path, entries)
    v1, v2 = vocab("l1", "cba"), vocab("l2", "rqp")
    d = load_dictionary(path, v1, v2)
    assert d.words.tolist() == [list(pair) for pair in dictionary_pairs_reference(entries, v1, v2)]


def test_indexes_are_exact_inverses():
    d = BilingualDictionary("l1", "l2", [(0, 1), (0, 2), (3, 1)])
    assert d.words.dtype == np.int64
    assert d.words.tolist() == [[c.word1, c.word2] for c in d.concepts]
    for side in (0, 1):
        starts, members = grouped(d.words[:, side], np.arange(len(d)), 4)
        # every concept once, under its own word, ascending within a word
        assert sorted(members.tolist()) == list(range(len(d)))
        for w in range(4):
            group = members[starts[w]:starts[w + 1]].tolist()
            assert group == sorted(group)
            assert all(d.words[c, side] == w for c in group)


@pytest.mark.parametrize("pairs", [[(-1, 0)], [(0, 0), (2, -3)]])
def test_negative_word_ids_are_refused(pairs):
    with pytest.raises(DataError, match=f"^concept {len(pairs) - 1} has a negative word id$"):
        BilingualDictionary("l1", "l2", pairs)


def test_subsample_identity_at_full_fraction():
    d = BilingualDictionary("l1", "l2", [(i, i) for i in range(10)])
    out = subsample(d, 1.0, seed=5)
    assert pair_set(out) == pair_set(d)


def test_subsample_half_of_ten_gives_five_reproducibly():
    d = BilingualDictionary("l1", "l2", [(i, i) for i in range(10)])
    a = subsample(d, 0.5, seed=11)
    b = subsample(d, 0.5, seed=11)
    assert len(a) == 5
    assert pair_set(a) == pair_set(b)
    # re-indexed densely
    assert [c.concept_id for c in a.concepts] == list(range(5))


def test_subsample_different_seeds_same_size():
    d = BilingualDictionary("l1", "l2", [(i, i) for i in range(40)])
    sizes = set()
    sets = []
    for seed in range(6):
        out = subsample(d, 0.5, seed=seed)
        sizes.add(len(out))
        sets.append(pair_set(out))
    assert sizes == {20}
    assert any(s != sets[0] for s in sets[1:])


def test_subsample_fraction_validation():
    d = BilingualDictionary("l1", "l2", [(0, 0)])
    with pytest.raises(ConfigError):
        subsample(d, 0.0, seed=0)
    with pytest.raises(ConfigError):
        subsample(d, 1.5, seed=0)


def test_subsample_ceil_cardinality():
    d = BilingualDictionary("l1", "l2", [(i, i) for i in range(7)])
    assert len(subsample(d, 0.5, seed=0)) == 4  # ceil(3.5)
