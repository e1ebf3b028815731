"""Dirichlet tree over the two vocabularies for vocabulary-link models.

Structure: a root whose children are one internal node per translation
concept plus one direct leaf per untranslated word. Each concept node has
two leaves, one per language. Words in several concepts get one leaf per
membership and never a direct root leaf.

Counting semantics: concept-edge counts pool tokens of both languages
(this is where topic knowledge crosses languages), while each language
normalizes the root distribution over its own reachable children, so a
tree with no concepts reduces exactly to per-language LDA.

The counts are contiguous int64 arrays, the ones the training sweep
updates in place: `concept_topic` (C x K, pooled over both languages),
`leaf_topic` (2 x C x K, one table per language), `concept_total` (K) and
`untrans_total` (2 x K). Concept c's word on side s is `words[c, s]`, the
dictionary's own table; word w's concepts on side s, ascending, are the
CSR slice `member_concepts[s][member_start[s][w]:member_start[s][w + 1]]`.
"""

from __future__ import annotations

import numpy as np

from .corpus import Vocabulary
from .dictionary import BilingualDictionary, grouped
from .errors import DataError


class DirichletTree:
    def __init__(
        self,
        dictionary: BilingualDictionary,
        v1: Vocabulary,
        v2: Vocabulary,
        k: int,
    ):
        self.n_topics = k
        self.n_concepts = len(dictionary)
        self.vocab_sizes = (v1.size, v2.size)
        dictionary.check_vocabularies(self.vocab_sizes)
        self.words = dictionary.words
        concepts = np.arange(self.n_concepts, dtype=np.int64)
        self.member_start, self.member_concepts = zip(
            *(grouped(self.words[:, s], concepts, n) for s, n in enumerate(self.vocab_sizes))
        )
        self.n_untranslated = tuple(
            int(np.count_nonzero(np.diff(starts) == 0)) for starts in self.member_start
        )
        self.zero_counts()

    def root_children_prior(self, side: int, beta_root: float, beta: float) -> float:
        """Sum of priors over the root children visible to one language."""
        return self.n_concepts * beta_root + self.n_untranslated[side] * beta

    def root_total(self, side: int) -> np.ndarray:
        """Per-topic token count over one language's root children: pooled
        concept-edge counts plus that language's untranslated-leaf counts."""
        return self.concept_total + self.untrans_total[side]

    def add_paths(self, side: int, topics: np.ndarray, paths: np.ndarray) -> None:
        """Count one side's tokens, with their `topics`, along their `paths`
        (-1 for a direct root leaf)."""
        k = self.n_topics
        on_concept = paths >= 0
        counts = np.bincount(
            paths[on_concept] * k + topics[on_concept], minlength=self.n_concepts * k
        ).reshape(self.n_concepts, k)
        self.concept_topic += counts
        self.leaf_topic[side] += counts
        self.concept_total += counts.sum(axis=0)
        self.untrans_total[side] += np.bincount(topics[~on_concept], minlength=k)

    def check_consistency(self, word_topic: tuple[np.ndarray, np.ndarray]) -> None:
        """Verify the count invariants against per-side word-topic tables.

        Raises DataError on any mismatch; used by debug mode.
        """
        concept = self.concept_topic
        leaf = self.leaf_topic
        if not np.array_equal(concept, leaf[0] + leaf[1]):
            raise DataError("concept-node counts do not equal the sum of their leaves")
        if not np.array_equal(self.concept_total, concept.sum(axis=0)):
            raise DataError("pooled concept totals out of sync")
        for side in (0, 1):
            starts, table = self.member_start[side], np.asarray(word_topic[side])
            # each word's leaves summed over its CSR group: running sums
            running = np.zeros((len(self.member_concepts[side]) + 1, self.n_topics), np.int64)
            np.cumsum(leaf[side][self.member_concepts[side]], axis=0, out=running[1:])
            summed = running[starts[1:]] - running[starts[:-1]]
            translated = starts[1:] > starts[:-1]
            wrong = np.flatnonzero(translated & (summed != table).any(axis=1))
            if len(wrong):
                raise DataError(
                    f"leaf counts for word {wrong[0]} on side {side} do not sum to its word-topic counts"
                )
            if not np.array_equal(table[~translated].sum(axis=0), self.untrans_total[side]):
                raise DataError(f"untranslated totals out of sync on side {side}")

    def zero_counts(self) -> None:
        """Start every count over with fresh zero arrays: per-topic counts
        on the concept edges (pooled over both languages) and on each
        language's concept leaves, and their per-topic totals."""
        k = self.n_topics
        self.concept_topic = np.zeros((self.n_concepts, k), dtype=np.int64)
        self.leaf_topic = np.zeros((2, self.n_concepts, k), dtype=np.int64)
        self.concept_total = np.zeros(k, dtype=np.int64)
        self.untrans_total = np.zeros((2, k), dtype=np.int64)


def build_tree(
    dictionary: BilingualDictionary, v1: Vocabulary, v2: Vocabulary, k: int
) -> DirichletTree:
    return DirichletTree(dictionary, v1, v2, k)
