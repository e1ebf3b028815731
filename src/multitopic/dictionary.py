"""Bilingual dictionary: translation-pair concepts indexed against the
two vocabularies, plus deterministic subsampling for resource-size
experiments.

The concepts live in one table, `BilingualDictionary.words`, whose row c
holds concept c's (word1, word2); the tree, the transfer build and LIS
read it, and group it by word through `grouped`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary, open_text
from .errors import DataError
from .settings import Key

logger = logging.getLogger(__name__)
DICTIONARY_FRACTION = Key(1.0, "float", "(0, 1]")  # the share `subsample` keeps


@dataclass(frozen=True)
class Concept:
    """One translation pair; word1 lives in the first language, word2 in the second."""

    concept_id: int
    word1: int
    word2: int


class BilingualDictionary:
    """`words` is the C x 2 int64 concept table; `concepts` holds its rows
    as `Concept` records. A negative word id is a `DataError`."""

    def __init__(self, lang1: str, lang2: str, pairs: list[tuple[int, int]]):
        self.lang1 = lang1
        self.lang2 = lang2
        self.words = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        negative = np.flatnonzero((self.words < 0).any(axis=1))
        if len(negative):
            raise DataError(f"concept {negative[0]} has a negative word id")
        self.concepts: list[Concept] = [
            Concept(i, w1, w2) for i, (w1, w2) in enumerate(self.words.tolist())
        ]

    def __len__(self) -> int:
        return len(self.concepts)

    def check_vocabularies(self, sizes: tuple[int, int]) -> None:
        """Refuse a concept word id at or above its language's vocabulary
        size (`sizes`, first language first)."""
        outside = np.argwhere(self.words >= np.asarray(sizes))
        if len(outside):
            c, side = outside[0]
            raise DataError(
                f"concept {c} names word {self.words[c, side]}, outside the "
                f"{sizes[side]}-word vocabulary of {(self.lang1, self.lang2)[side]!r}"
            )

    def __repr__(self) -> str:
        return f"BilingualDictionary({self.lang1!r}-{self.lang2!r}, {len(self)} concepts)"


def grouped(keys: np.ndarray, values: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """`values` grouped by `keys` (each in [0, n_keys)) as (starts,
    members): group g is `members[starts[g]:starts[g + 1]]`, in input
    order."""
    starts = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=starts[1:])
    return starts, values[np.argsort(keys, kind="stable")]


def load_dictionary(
    path: str | Path, v1: Vocabulary, v2: Vocabulary
) -> BilingualDictionary:
    """Read a two-column TSV of translation pairs.

    Lines starting with '#' are comments. Entries with a side missing from
    the corresponding vocabulary are dropped (count logged), as are
    multi-word entries; duplicate pairs are collapsed to one concept.
    An empty result is a warning, not an error: downstream models then
    degrade toward per-language LDA.
    """
    pairs: dict[tuple[int, int], None] = {}  # insertion-ordered, so duplicates collapse
    dropped_oov = 0
    dropped_multiword = 0
    with open_text(path, "dictionary file") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise DataError(f"{path}:{lineno}: expected two tab-separated columns")
            w1s, w2s = cols[0].strip(), cols[1].strip()
            if " " in w1s or " " in w2s:
                dropped_multiword += 1
                continue
            if w1s not in v1.id_of_word or w2s not in v2.id_of_word:
                dropped_oov += 1
                continue
            pairs[v1.id_of_word[w1s], v2.id_of_word[w2s]] = None
    if dropped_oov or dropped_multiword:
        logger.info(
            "%s: dropped %d out-of-vocabulary and %d multi-word entries",
            path, dropped_oov, dropped_multiword,
        )
    if not pairs:
        logger.warning("%s: no usable translation pairs; models degrade toward LDA", path)
    return BilingualDictionary(v1.language, v2.language, list(pairs))


def subsample(
    dictionary: BilingualDictionary, fraction: float, seed: int
) -> BilingualDictionary:
    """Uniformly sample ceil(fraction * n) concepts without replacement,
    deterministic under `seed`: the survivors keep their relative order
    and are re-indexed densely. `fraction` is the `dictionary_fraction`
    setting, refused (`ConfigError`) outside (0, 1] as the config is."""
    fraction = DICTIONARY_FRACTION.check("dictionary_fraction", fraction)
    n = len(dictionary)
    if fraction == 1.0 or n == 0:
        return BilingualDictionary(dictionary.lang1, dictionary.lang2, dictionary.words)
    m = int(np.ceil(fraction * n))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    return BilingualDictionary(dictionary.lang1, dictionary.lang2, dictionary.words[chosen])


def write_dictionary_tsv(
    dictionary: BilingualDictionary, v1: Vocabulary, v2: Vocabulary, path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {dictionary.lang1}\t{dictionary.lang2}\n")
        for c in dictionary.concepts:
            fh.write(f"{v1.word_of_id[c.word1]}\t{v2.word_of_id[c.word2]}\n")
