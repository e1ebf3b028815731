"""Bilingual dictionary: translation-pair concepts indexed against the
two vocabularies, plus deterministic subsampling for resource-size
experiments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary, open_text
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Concept:
    """One translation pair; word1 lives in the first language, word2 in the second."""

    concept_id: int
    word1: int
    word2: int


class BilingualDictionary:
    def __init__(self, lang1: str, lang2: str, pairs: list[tuple[int, int]]):
        self.lang1 = lang1
        self.lang2 = lang2
        self.concepts: list[Concept] = [
            Concept(i, w1, w2) for i, (w1, w2) in enumerate(pairs)
        ]
        self.by_word1: dict[int, list[int]] = {}
        self.by_word2: dict[int, list[int]] = {}
        for c in self.concepts:
            self.by_word1.setdefault(c.word1, []).append(c.concept_id)
            self.by_word2.setdefault(c.word2, []).append(c.concept_id)

    def __len__(self) -> int:
        return len(self.concepts)

    def pair_set(self) -> set[tuple[int, int]]:
        return {(c.word1, c.word2) for c in self.concepts}

    def __repr__(self) -> str:
        return f"BilingualDictionary({self.lang1!r}-{self.lang2!r}, {len(self)} concepts)"


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
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
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
            pair = (v1.id_of_word[w1s], v2.id_of_word[w2s])
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
    if dropped_oov or dropped_multiword:
        logger.info(
            "%s: dropped %d out-of-vocabulary and %d multi-word entries",
            path, dropped_oov, dropped_multiword,
        )
    if not pairs:
        logger.warning("%s: no usable translation pairs; models degrade toward LDA", path)
    return BilingualDictionary(v1.language, v2.language, pairs)


def subsample(
    dictionary: BilingualDictionary, fraction: float, seed: int
) -> BilingualDictionary:
    """Uniformly sample ceil(fraction * n) concepts without replacement.

    Deterministic under `seed`; surviving concepts keep their relative
    order and are re-indexed densely.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    n = len(dictionary.concepts)
    if fraction == 1.0 or n == 0:
        pairs = [(c.word1, c.word2) for c in dictionary.concepts]
        return BilingualDictionary(dictionary.lang1, dictionary.lang2, pairs)
    m = int(np.ceil(fraction * n))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    pairs = [
        (dictionary.concepts[i].word1, dictionary.concepts[i].word2) for i in chosen
    ]
    return BilingualDictionary(dictionary.lang1, dictionary.lang2, pairs)


def write_dictionary_tsv(
    dictionary: BilingualDictionary, v1: Vocabulary, v2: Vocabulary, path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {dictionary.lang1}\t{dictionary.lang2}\n")
        for c in dictionary.concepts:
            fh.write(f"{v1.word_of_id[c.word1]}\t{v2.word_of_id[c.word2]}\n")
