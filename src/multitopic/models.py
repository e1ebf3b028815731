"""Collapsed Gibbs samplers for the model family: per-language LDA,
hard document links (joint and conditional formulations), soft links via
transfer distributions, vocabulary links via a Dirichlet tree, and the
soft+vocabulary combination.

All randomness flows through NumPy's PCG64 generator seeded from the run
seed; held-out inference spawns one child stream per document, so results
are reproducible across platforms and independent of corpus composition.
Inference samples all documents in lockstep, one token position at a
time, with numpy; it is bit-identical to sampling each document alone.

The public conditional-distribution functions operate on `SideState`
tables and expect the current token's assignment to already be removed
from all counts. Training uses an equivalent plain-Python inner loop for
speed; `debug_checks=True` re-tallies every table from the assignments
after each sweep.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import BilingualCorpus, Corpus, Vocabulary
from .dictionary import BilingualDictionary
from .errors import ConfigError, DataError
from .transfer import AnnealConfig, TransferMatrix
from .tree import DirichletTree, build_tree

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
MODEL_KINDS = ("lda", "hardlink", "softlink", "voclink", "softlink_voclink")


@dataclass
class Hyperparams:
    k: int = 25
    alpha: float = 0.1
    beta: float = 0.01
    beta_root: float = 0.01
    beta_internal: float = 100.0
    train_iterations: int = 1000
    infer_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"need at least 2 topics, got {self.k}")
        for name in ("alpha", "beta", "beta_root", "beta_internal"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.train_iterations < 1 or self.infer_iterations < 1:
            raise ConfigError("iteration counts must be positive")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha,
            "beta": self.beta,
            "beta_root": self.beta_root,
            "beta_internal": self.beta_internal,
            "train_iterations": self.train_iterations,
            "infer_iterations": self.infer_iterations,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Hyperparams":
        return cls(**payload)


@dataclass
class SideState:
    """Count tables and assignments for one language."""

    tokens: list[list[int]]
    doc_topic: np.ndarray  # (D, K)
    word_topic: np.ndarray  # (V, K)
    topic_total: np.ndarray  # (K,)
    z: list[np.ndarray]

    @property
    def n_topics(self) -> int:
        return self.doc_topic.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.word_topic.shape[0]


def tally_side(tokens: list[list[int]], z: list, k: int, vocab_size: int) -> SideState:
    """Build a SideState whose tables are the exact tallies of `z`."""
    doc_topic = np.zeros((len(tokens), k), dtype=np.int64)
    word_topic = np.zeros((vocab_size, k), dtype=np.int64)
    topic_total = np.zeros(k, dtype=np.int64)
    z_arrays = []
    for d, (toks, zd) in enumerate(zip(tokens, z)):
        zd = np.asarray(zd, dtype=np.int64)
        if len(zd) != len(toks):
            raise DataError(f"assignments for document {d} do not match its length")
        z_arrays.append(zd)
        for w, topic in zip(toks, zd):
            doc_topic[d, topic] += 1
            word_topic[w, topic] += 1
            topic_total[topic] += 1
    return SideState(
        tokens=[list(t) for t in tokens],
        doc_topic=doc_topic,
        word_topic=word_topic,
        topic_total=topic_total,
        z=z_arrays,
    )


def _check_counts(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if (arr < 0).any():
            raise DataError("negative count detected (internal corruption)")


def _word_factor(side: SideState, word: int, hp: Hyperparams) -> np.ndarray:
    return (side.word_topic[word] + hp.beta) / (
        side.topic_total + side.vocab_size * hp.beta
    )


def lda_conditional(side: SideState, doc: int, pos: int, hp: Hyperparams) -> np.ndarray:
    """p(k) for one token under per-language LDA, current token excluded."""
    word = side.tokens[doc][pos]
    _check_counts(side.doc_topic[doc], side.word_topic[word], side.topic_total)
    p = (side.doc_topic[doc] + hp.alpha) * _word_factor(side, word, hp)
    return p / p.sum()


def hardlink_conditional(
    side: SideState,
    doc: int,
    pos: int,
    partner_counts: np.ndarray,
    hp: Hyperparams,
) -> np.ndarray:
    """Document-links conditional: the linked document's topic tallies act
    as extra pseudo-counts on the Dirichlet prior. A zero vector recovers
    LDA (unlinked document)."""
    word = side.tokens[doc][pos]
    _check_counts(side.doc_topic[doc], side.word_topic[word], side.topic_total)
    partner = np.asarray(partner_counts)
    if (partner < 0).any():
        raise DataError("negative partner counts")
    p = (side.doc_topic[doc] + partner + hp.alpha) * _word_factor(side, word, hp)
    return p / p.sum()


def softlink_prior(
    row: tuple[np.ndarray, np.ndarray], source_doc_topic: np.ndarray
) -> np.ndarray:
    """Transfer pseudo-counts for one document: the row's weighted mixture
    of source-document topic counts. An empty row yields the zero vector."""
    idx, weights = row
    k = source_doc_topic.shape[1]
    if len(idx) == 0:
        return np.zeros(k, dtype=np.float64)
    if idx.max() >= source_doc_topic.shape[0]:
        raise DataError("transfer row refers to a missing source document")
    return weights @ source_doc_topic[idx].astype(np.float64)


def softlink_conditional(
    side: SideState,
    doc: int,
    pos: int,
    prior_pseudo: np.ndarray,
    hp: Hyperparams,
) -> np.ndarray:
    """Soft-links conditional; `prior_pseudo` is the softlink_prior output
    for this document under the sweep-start snapshot policy."""
    word = side.tokens[doc][pos]
    _check_counts(side.doc_topic[doc], side.word_topic[word], side.topic_total)
    p = (side.doc_topic[doc] + prior_pseudo + hp.alpha) * _word_factor(side, word, hp)
    return p / p.sum()


def voclink_tree_factor(
    side: SideState,
    tree: DirichletTree,
    side_index: int,
    word: int,
    hp: Hyperparams,
) -> np.ndarray:
    """Word term for a vocabulary-links token: summed path products over
    the word's leaves. Untranslated words use their direct root leaf, so
    a tree without concepts reproduces the LDA word term exactly."""
    den = tree.root_total(side_index) + tree.root_children_prior(
        side_index, hp.beta_root, hp.beta
    )
    memberships = tree.concepts_of_word[side_index][word]
    if not memberships:
        return (side.word_topic[word] + hp.beta) / den
    total = np.zeros(tree.n_topics, dtype=np.float64)
    for c in memberships:
        node = tree.concept_topic[c]
        leaf = tree.leaf_topic[side_index][c]
        total += (node + hp.beta_root) / den * (leaf + hp.beta_internal) / (
            node + 2.0 * hp.beta_internal
        )
    return total


def voclink_conditional(
    side: SideState,
    tree: DirichletTree,
    side_index: int,
    doc: int,
    pos: int,
    hp: Hyperparams,
) -> np.ndarray:
    """p(k) for one token under vocabulary links, marginalized over the
    token's possible leaves; tree counts must already exclude the token."""
    word = side.tokens[doc][pos]
    _check_counts(side.doc_topic[doc], side.word_topic[word], side.topic_total)
    _check_counts(tree.concept_topic, tree.untrans_total[side_index])
    p = (side.doc_topic[doc] + hp.alpha) * voclink_tree_factor(
        side, tree, side_index, word, hp
    )
    return p / p.sum()


@dataclass
class TopicModel:
    model_kind: str
    hyperparams: Hyperparams
    vocabularies: tuple[Vocabulary, Vocabulary]
    phi: tuple[np.ndarray, np.ndarray]
    theta: tuple[np.ndarray, np.ndarray]
    doc_ids: tuple[list[str], list[str]]
    doc_labels: tuple[list, list]
    provenance: dict = field(default_factory=dict)
    counts: dict | None = None

    @property
    def languages(self) -> tuple[str, str]:
        return (self.vocabularies[0].language, self.vocabularies[1].language)

    def side_of_language(self, language: str) -> int:
        try:
            return self.languages.index(language)
        except ValueError:
            raise DataError(
                f"model covers {self.languages}, not {language!r}"
            ) from None


# ---------------------------------------------------------------------------
# training fast path: plain-Python count lists, one uniform draw per token
# ---------------------------------------------------------------------------


def _zeros(n: int, k: int) -> list[list[int]]:
    return [[0] * k for _ in range(n)]


def _sweep_plain(tokens, z, ndk, priors, nwk, nk, beta, vbeta, n_topics, rng):
    """One Gibbs sweep where the topic prior for document d is the float
    vector priors[d] (alpha, or alpha plus transfer pseudo-counts). Under
    conditional hard links the caller has added the partner's topic counts
    to ndk[d], so the score is (nd + partner) + alpha."""
    for d, toks in enumerate(tokens):
        if not toks:
            continue
        zd = z[d]
        nd = ndk[d]
        pr = priors[d]
        us = rng.random(len(toks)).tolist()
        for i, w in enumerate(toks):
            k0 = zd[i]
            nw = nwk[w]
            nd[k0] -= 1
            nw[k0] -= 1
            nk[k0] -= 1
            total = 0.0
            probs = []
            append = probs.append
            for kk in range(n_topics):
                p = (nd[kk] + pr[kk]) * (nw[kk] + beta) / (nk[kk] + vbeta)
                append(p)
                total += p
            u = us[i] * total
            acc = 0.0
            k1 = n_topics - 1
            for kk in range(n_topics):
                acc += probs[kk]
                if u < acc:
                    k1 = kk
                    break
            zd[i] = k1
            nd[k1] += 1
            nw[k1] += 1
            nk[k1] += 1


def _sweep_pooled(tokens, z, ndk, pools, alpha, nwk, nk, beta, vbeta, n_topics, rng):
    """Joint-formulation hard links: each linked pair shares one pooled
    topic-count row (pools[d]); per-document rows are kept for bookkeeping."""
    for d, toks in enumerate(tokens):
        if not toks:
            continue
        zd = z[d]
        nd = ndk[d]
        pool = pools[d]
        us = rng.random(len(toks)).tolist()
        for i, w in enumerate(toks):
            k0 = zd[i]
            nw = nwk[w]
            nd[k0] -= 1
            nw[k0] -= 1
            nk[k0] -= 1
            if pool is None:
                row = nd
            else:
                pool[k0] -= 1
                row = pool
            total = 0.0
            probs = []
            append = probs.append
            for kk in range(n_topics):
                p = (row[kk] + alpha) * (nw[kk] + beta) / (nk[kk] + vbeta)
                append(p)
                total += p
            u = us[i] * total
            acc = 0.0
            k1 = n_topics - 1
            for kk in range(n_topics):
                acc += probs[kk]
                if u < acc:
                    k1 = kk
                    break
            zd[i] = k1
            nd[k1] += 1
            nw[k1] += 1
            nk[k1] += 1
            if pool is not None:
                pool[k1] += 1


def _sweep_tree(
    tokens, z, paths, ndk, priors, nwk, nk, memberships,
    ncp, nleaf, ctotal, utotal, beta, beta_root, beta_internal, root_prior,
    n_topics, rng,
):
    """Vocabulary-links sweep for one side: topic and leaf are sampled
    jointly by enumerating (leaf, topic) pairs. ncp/ctotal pool both
    languages; nleaf/utotal belong to this side."""
    beta_int2 = 2.0 * beta_internal
    for d, toks in enumerate(tokens):
        if not toks:
            continue
        zd = z[d]
        pathd = paths[d]
        nd = ndk[d]
        pr = priors[d]
        us = rng.random(len(toks)).tolist()
        for i, w in enumerate(toks):
            k0 = zd[i]
            c0 = pathd[i]
            nw = nwk[w]
            nd[k0] -= 1
            nw[k0] -= 1
            nk[k0] -= 1
            if c0 >= 0:
                ncp[c0][k0] -= 1
                nleaf[c0][k0] -= 1
                ctotal[k0] -= 1
            else:
                utotal[k0] -= 1
            ms = memberships[w]
            total = 0.0
            probs = []
            append = probs.append
            if not ms:
                for kk in range(n_topics):
                    p = (
                        (nd[kk] + pr[kk])
                        * (nw[kk] + beta)
                        / (ctotal[kk] + utotal[kk] + root_prior)
                    )
                    append(p)
                    total += p
            else:
                for c in ms:
                    node = ncp[c]
                    leaf = nleaf[c]
                    for kk in range(n_topics):
                        p = (
                            (nd[kk] + pr[kk])
                            * (node[kk] + beta_root)
                            / (ctotal[kk] + utotal[kk] + root_prior)
                            * (leaf[kk] + beta_internal)
                            / (node[kk] + beta_int2)
                        )
                        append(p)
                        total += p
            u = us[i] * total
            acc = 0.0
            pick = len(probs) - 1
            for j, p in enumerate(probs):
                acc += p
                if u < acc:
                    pick = j
                    break
            if ms:
                k1 = pick % n_topics
                c1 = ms[pick // n_topics]
            else:
                k1 = pick
                c1 = -1
            zd[i] = k1
            pathd[i] = c1
            nd[k1] += 1
            nw[k1] += 1
            nk[k1] += 1
            if c1 >= 0:
                ncp[c1][k1] += 1
                nleaf[c1][k1] += 1
                ctotal[k1] += 1
            else:
                utotal[k1] += 1


class _FastSide:
    """Mutable plain-Python mirror of one side's count tables."""

    def __init__(self, corpus: Corpus, k: int):
        self.language = corpus.language
        self.vocab_size = corpus.vocabulary.size
        self.n_topics = k
        self.tokens: list[list[int]] = [list(d.tokens) for d in corpus.documents]
        self.lengths = [len(t) for t in self.tokens]
        self.z: list[list[int]] = [[] for _ in self.tokens]
        self.ndk = _zeros(len(self.tokens), k)
        self.nwk = _zeros(self.vocab_size, k)
        self.nk = [0] * k
        self.paths: list[list[int]] = [[] for _ in self.tokens]

    def init_assignments(self, rng, memberships: list[list[int]] | None, tree_counts) -> None:
        """Draw each document's topics; with `memberships`, also draw each
        token's tree leaf right after its document's topics."""
        k = self.n_topics
        if memberships is not None:
            ncp, nleaf, ctotal, utotal = tree_counts
        for d, toks in enumerate(self.tokens):
            zd = rng.integers(0, k, size=len(toks)).tolist()
            self.z[d] = zd
            nd = self.ndk[d]
            pathd = self.paths[d]
            for w, topic in zip(toks, zd):
                nd[topic] += 1
                self.nwk[w][topic] += 1
                self.nk[topic] += 1
                if memberships is None:
                    continue
                ms = memberships[w]
                if not ms:
                    c = -1
                    utotal[topic] += 1
                else:
                    c = ms[0] if len(ms) == 1 else ms[int(rng.integers(0, len(ms)))]
                    ncp[c][topic] += 1
                    nleaf[c][topic] += 1
                    ctotal[topic] += 1
                pathd.append(c)

    def doc_topic_array(self) -> np.ndarray:
        return np.array(self.ndk, dtype=np.int64)

    def word_topic_array(self) -> np.ndarray:
        return np.array(self.nwk, dtype=np.int64)

    def verify(self) -> None:
        expected = tally_side(self.tokens, self.z, self.n_topics, self.vocab_size)
        if not np.array_equal(expected.doc_topic, self.doc_topic_array()):
            raise DataError("document-topic table out of sync with assignments")
        if not np.array_equal(expected.word_topic, self.word_topic_array()):
            raise DataError("word-topic table out of sync with assignments")
        if not np.array_equal(expected.topic_total, np.array(self.nk)):
            raise DataError("topic totals out of sync with assignments")


def _pseudo_counts(matrix: TransferMatrix, source_ndk: list[list[int]], k: int) -> np.ndarray:
    """Soft-link pseudo-counts (D x K): row d is the weighted mixture of the
    source documents' topic counts that transfer row d names, zero for an
    empty row. One `weights @ source[idx]` per row keeps the summation
    order of `softlink_prior`."""
    source = np.array(source_ndk, dtype=np.float64).reshape(-1, k)
    pseudo = np.zeros((len(matrix.rows), k), dtype=np.float64)
    for d, (idx, weights) in enumerate(matrix.rows):
        if len(idx):
            pseudo[d] = weights @ source[idx]
    return pseudo


def _add_partner_counts(ndk: list[list[int]], partners: dict, sign: int) -> None:
    """Add (sign 1) or remove (sign -1) each linked partner's topic counts
    in its document's row of `ndk`."""
    for d, partner in partners.items():
        nd = ndk[d]
        for kk, count in enumerate(partner):
            nd[kk] += sign * count


def _validate_matrix(matrix: TransferMatrix, target: Corpus, source: Corpus) -> None:
    if matrix.target_language != target.language or matrix.source_language != source.language:
        raise ConfigError(
            f"transfer matrix direction ({matrix.target_language!r} <- "
            f"{matrix.source_language!r}) does not match corpora"
        )
    if len(matrix.rows) != len(target.documents):
        raise ConfigError("transfer matrix row count does not match target corpus")
    n_source = len(source.documents)
    for idx, _ in matrix.rows:
        if len(idx) and idx.max() >= n_source:
            raise ConfigError("transfer matrix refers to a missing source document")


def train(
    model_kind: str,
    corpus: BilingualCorpus,
    hp: Hyperparams,
    *,
    transfer_to_side1: TransferMatrix | None = None,
    transfer_to_side2: TransferMatrix | None = None,
    tree: DirichletTree | None = None,
    dictionary: BilingualDictionary | None = None,
    anneal: AnnealConfig | None = None,
    hardlink_formulation: str = "conditional",
    debug_checks: bool = False,
) -> TopicModel:
    """Run seeded initialization plus `hp.train_iterations` full sweeps
    (all side-1 documents in corpus order, then all side-2 documents) and
    return posterior-mean phi/theta from the final sample.

    Soft-link priors are recomputed once per sweep from topic counts
    snapshotted at the sweep start. Annealing, when scheduled, fires at
    iteration end; the scheduler keeps the annealed matrices, and the
    caller's transfer matrices are left unchanged.
    """
    from .schedule import AnnealScheduler  # local import to avoid a cycle

    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    uses_soft = model_kind in ("softlink", "softlink_voclink")
    uses_tree = model_kind in ("voclink", "softlink_voclink")

    if uses_soft:
        if transfer_to_side1 is None or transfer_to_side2 is None:
            raise ConfigError(f"{model_kind} requires transfer matrices in both directions")
        _validate_matrix(transfer_to_side1, corpus.side1, corpus.side2)
        _validate_matrix(transfer_to_side2, corpus.side2, corpus.side1)
    if uses_tree and tree is None:
        if dictionary is None:
            raise ConfigError(f"{model_kind} requires a Dirichlet tree or a dictionary")
        tree = build_tree(dictionary, corpus.side1.vocabulary, corpus.side2.vocabulary, hp.k)
    if uses_tree:
        if tree.n_topics != hp.k:
            raise ConfigError("tree topic count does not match hyperparameters")
        if tree.vocab_sizes != (corpus.side1.vocabulary.size, corpus.side2.vocabulary.size):
            raise ConfigError("tree was built against different vocabularies")
        tree.zero_counts()
    if hardlink_formulation not in ("conditional", "joint"):
        raise ConfigError(f"unknown hardlink formulation {hardlink_formulation!r}")
    if anneal is not None and anneal.schedule != "none" and not uses_soft:
        raise ConfigError("annealing schedules only apply to soft-link models")
    if anneal is not None and anneal.schedule == "adaptive" and dictionary is None:
        raise ConfigError("the adaptive schedule needs a dictionary for its LIS scorer")

    rng = np.random.default_rng(hp.seed)
    sides = (_FastSide(corpus.side1, hp.k), _FastSide(corpus.side2, hp.k))

    tree_lists = None
    if uses_tree:
        ncp = _zeros(tree.n_concepts, hp.k)
        nleaf = (_zeros(tree.n_concepts, hp.k), _zeros(tree.n_concepts, hp.k))
        ctotal = [0] * hp.k
        utotal = ([0] * hp.k, [0] * hp.k)
        tree_lists = (ncp, nleaf, ctotal, utotal)

    for s, fast in enumerate(sides):
        if uses_tree:
            ncp, nleaf, ctotal, utotal = tree_lists
            fast.init_assignments(
                rng, tree.concepts_of_word[s], (ncp, nleaf[s], ctotal, utotal[s])
            )
        else:
            fast.init_assignments(rng, None, None)

    # hard-link structure: under the conditional formulation partners[s][d]
    # is the live count row of document d's partner; under the joint one
    # each linked pair shares one pooled row
    partners: tuple[dict, dict] = ({}, {})
    pools: tuple[list, list] = ([None] * len(sides[0].tokens), [None] * len(sides[1].tokens))
    if model_kind == "hardlink":
        for i1, i2 in corpus.hard_links:
            if hardlink_formulation == "joint":
                pooled = [a + b for a, b in zip(sides[0].ndk[i1], sides[1].ndk[i2])]
                pools[0][i1] = pooled
                pools[1][i2] = pooled
            else:
                partners[0][i1] = sides[1].ndk[i2]
                partners[1][i2] = sides[0].ndk[i1]

    scheduler = AnnealScheduler(
        anneal,
        [transfer_to_side1, transfer_to_side2] if uses_soft else [],
        dictionary=dictionary, hp=hp, seed=hp.seed,
    )

    alpha = hp.alpha
    beta = hp.beta
    base_priors: tuple[list, list] = (
        [[alpha] * hp.k] * len(sides[0].tokens),
        [[alpha] * hp.k] * len(sides[1].tokens),
    )
    root_priors = None
    if uses_tree:
        root_priors = (
            tree.root_children_prior(0, hp.beta_root, hp.beta),
            tree.root_children_prior(1, hp.beta_root, hp.beta),
        )

    for iteration in range(1, hp.train_iterations + 1):
        if uses_soft:
            priors = tuple(
                (_pseudo_counts(scheduler.matrices[s], sides[1 - s].ndk, hp.k) + alpha).tolist()
                for s in (0, 1)
            )
        else:
            priors = base_priors
        for s in (0, 1):
            fast = sides[s]
            vbeta = fast.vocab_size * beta
            if uses_tree:
                ncp, nleaf, ctotal, utotal = tree_lists
                _sweep_tree(
                    fast.tokens, fast.z, fast.paths, fast.ndk, priors[s],
                    fast.nwk, fast.nk, tree.concepts_of_word[s],
                    ncp, nleaf[s], ctotal, utotal[s],
                    beta, hp.beta_root, hp.beta_internal, root_priors[s],
                    hp.k, rng,
                )
            elif model_kind == "hardlink" and hardlink_formulation == "joint":
                _sweep_pooled(
                    fast.tokens, fast.z, fast.ndk, pools[s], alpha,
                    fast.nwk, fast.nk, beta, vbeta, hp.k, rng,
                )
            else:
                # the partner rows belong to the other side, so they hold
                # still while this side is swept
                _add_partner_counts(fast.ndk, partners[s], 1)
                _sweep_plain(
                    fast.tokens, fast.z, fast.ndk, priors[s],
                    fast.nwk, fast.nk, beta, vbeta, hp.k, rng,
                )
                _add_partner_counts(fast.ndk, partners[s], -1)
        scheduler.after_iteration(
            iteration,
            lambda: (sides[0].word_topic_array(), sides[1].word_topic_array()),
        )
        if debug_checks:
            _run_debug_checks(sides, model_kind, tree, tree_lists, pools)

    if uses_tree:
        _write_tree_counts(tree, tree_lists)
    return _assemble_model(
        model_kind, corpus, hp, sides, tree, scheduler, hardlink_formulation
    )


def _run_debug_checks(sides, model_kind, tree, tree_lists, pools) -> None:
    for s in (0, 1):
        sides[s].verify()
    if tree is not None and tree_lists is not None:
        _write_tree_counts(tree, tree_lists)
        tree.check_consistency(
            (sides[0].word_topic_array(), sides[1].word_topic_array())
        )
    if model_kind == "hardlink":
        for s in (0, 1):
            for d, pool in enumerate(pools[s]):
                if pool is None:
                    continue
                # pooled row must stay the sum of the two linked rows
                own = sides[s].ndk[d]
                other = [p - o for p, o in zip(pool, own)]
                if any(v < 0 for v in other):
                    raise DataError("pooled hard-link counts out of sync")


def _write_tree_counts(tree: DirichletTree, tree_lists) -> None:
    ncp, nleaf, ctotal, utotal = tree_lists
    tree.concept_topic[:] = np.array(ncp, dtype=np.int64).reshape(tree.concept_topic.shape)
    tree.leaf_topic[0][:] = np.array(nleaf[0], dtype=np.int64).reshape(tree.leaf_topic[0].shape)
    tree.leaf_topic[1][:] = np.array(nleaf[1], dtype=np.int64).reshape(tree.leaf_topic[1].shape)
    tree.concept_total[:] = np.array(ctotal, dtype=np.int64)
    tree.untrans_total[0][:] = np.array(utotal[0], dtype=np.int64)
    tree.untrans_total[1][:] = np.array(utotal[1], dtype=np.int64)


def _phi_plain(fast: _FastSide, hp: Hyperparams) -> np.ndarray:
    nwk = fast.word_topic_array().astype(np.float64)
    nk = np.array(fast.nk, dtype=np.float64)
    return ((nwk + hp.beta) / (nk + fast.vocab_size * hp.beta)).T


def _phi_tree(fast: _FastSide, tree: DirichletTree, side: int, hp: Hyperparams) -> np.ndarray:
    """Per-language topic-word table from tree counts, renormalized so each
    row is a distribution over that language's vocabulary."""
    den = (
        tree.root_total(side) + tree.root_children_prior(side, hp.beta_root, hp.beta)
    ).astype(np.float64)
    node = tree.concept_topic.astype(np.float64)
    leaf = tree.leaf_topic[side].astype(np.float64)
    concept_vals = (node + hp.beta_root) * (leaf + hp.beta_internal) / (
        node + 2.0 * hp.beta_internal
    )
    vals = np.zeros((fast.vocab_size, hp.k), dtype=np.float64)
    if tree.n_concepts:
        np.add.at(vals, tree.concept_word[side], concept_vals)
    untranslated = np.array(
        [not m for m in tree.concepts_of_word[side]], dtype=bool
    )
    nwk = fast.word_topic_array().astype(np.float64)
    vals[untranslated] = nwk[untranslated] + hp.beta
    phi = (vals / den).T
    return phi / phi.sum(axis=1, keepdims=True)


def _assemble_model(
    model_kind, corpus, hp, sides, tree, scheduler, hardlink_formulation
) -> TopicModel:
    uses_tree = model_kind in ("voclink", "softlink_voclink")
    uses_soft = model_kind in ("softlink", "softlink_voclink")
    alpha = hp.alpha

    phi = tuple(
        _phi_tree(sides[s], tree, s, hp) if uses_tree else _phi_plain(sides[s], hp)
        for s in (0, 1)
    )

    thetas = []
    for s in (0, 1):
        fast = sides[s]
        ndk = fast.doc_topic_array().astype(np.float64)
        lengths = np.array(fast.lengths, dtype=np.float64)
        if uses_soft:
            pseudo = _pseudo_counts(scheduler.matrices[s], sides[1 - s].ndk, hp.k)
        else:
            pseudo = np.zeros_like(ndk)
        if model_kind == "hardlink":
            other = sides[1 - s].doc_topic_array().astype(np.float64)
            for i1, i2 in corpus.hard_links:
                if s == 0:
                    pseudo[i1] = other[i2]
                else:
                    pseudo[i2] = other[i1]
        numer = ndk + pseudo + alpha
        denom = lengths + pseudo.sum(axis=1) + hp.k * alpha
        thetas.append(numer / denom[:, None])

    provenance = {
        "seed": hp.seed,
        "train_iterations": hp.train_iterations,
        "schedule": scheduler.describe(),
        "anneal_events": scheduler.events,
    }
    if scheduler.lis_values:
        provenance["lis_history"] = scheduler.lis_values
    if model_kind == "hardlink":
        provenance["hardlink_formulation"] = hardlink_formulation

    counts = {
        "doc_topic": [sides[0].ndk, sides[1].ndk],
        "word_topic": [sides[0].nwk, sides[1].nwk],
    }
    doc_labels = tuple(
        [sorted(d.labels) if d.labels else None for d in side.documents]
        for side in (corpus.side1, corpus.side2)
    )
    return TopicModel(
        model_kind=model_kind,
        hyperparams=hp,
        vocabularies=(corpus.side1.vocabulary, corpus.side2.vocabulary),
        phi=phi,
        theta=(thetas[0], thetas[1]),
        doc_ids=(
            [d.doc_id for d in corpus.side1.documents],
            [d.doc_id for d in corpus.side2.documents],
        ),
        doc_labels=doc_labels,
        provenance=provenance,
        counts=counts,
    )


def infer_heldout(
    model: TopicModel,
    heldout: Corpus,
    seed: int = 0,
    iterations: int | None = None,
) -> np.ndarray:
    """Infer document-topic distributions for held-out documents with the
    trained topic-word table frozen: only document counts are resampled,
    under the symmetric alpha prior (no transfer at inference time).

    Each document gets its own spawned random stream and draws from it
    exactly as a one-document-at-a-time sampler would: `integers(0, K, n)`
    for the initial topics, then one `random(n)` per iteration. Documents
    are nevertheless sampled in lockstep: at token position i, every
    document still that long resamples its i-th token in one vectorised
    step. Documents are ordered longest first, so the ones active at
    position i form a prefix, and tokens are stored position-major, so
    memory grows with the held-out token count. Results therefore do not
    depend on document order or on what else is in the corpus.

    The step is bit-identical to walking the unnormalised CDF one topic
    at a time: `np.cumsum` adds left to right like the walk does, and the
    first topic with `u < cdf[k]` is the number of entries `<= u`,
    because the CDF never decreases.
    """
    side = model.side_of_language(heldout.language)
    if heldout.vocabulary != model.vocabularies[side]:
        raise DataError(
            f"held-out corpus vocabulary does not match the model's "
            f"{heldout.language!r} vocabulary"
        )
    hp = model.hyperparams
    n_iter = hp.infer_iterations if iterations is None else iterations
    alpha = hp.alpha
    n_topics = hp.k
    docs = heldout.documents

    theta = np.full((len(docs), n_topics), 1.0 / n_topics)
    streams = np.random.SeedSequence(seed).spawn(len(docs))
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    order = order[lengths[order] > 0]  # empty documents keep the uniform row
    if len(order) == 0:
        return theta
    lens = lengths[order]
    rngs = [np.random.default_rng(streams[d]) for d in order]

    # document-major layout: document j's tokens at [starts[j], starts[j+1])
    starts = np.concatenate(([0], np.cumsum(lens)))
    tokens_dm = np.fromiter(
        (w for d in order for w in docs[d].tokens), dtype=np.int64, count=int(starts[-1])
    )
    z_dm = np.empty_like(tokens_dm)
    for j, rng in enumerate(rngs):
        z_dm[starts[j]:starts[j + 1]] = rng.integers(0, n_topics, size=lens[j])
    doc_dm = np.repeat(np.arange(len(order)), lens)
    nd = np.bincount(
        doc_dm * n_topics + z_dm, minlength=len(order) * n_topics
    ).reshape(len(order), n_topics)

    # position-major layout: the active[i] documents at position i sit at
    # [pos_starts[i], pos_starts[i+1]), in document order
    active = np.bincount(lens - 1)[::-1].cumsum()[::-1]
    pos_starts = np.concatenate(([0], np.cumsum(active)))
    pos_of_pm = np.repeat(np.arange(len(active)), active)
    doc_of_pm = np.arange(len(pos_of_pm)) - pos_starts[pos_of_pm]
    dm_of_pm = starts[doc_of_pm] + pos_of_pm
    tokens_pm = tokens_dm[dm_of_pm]
    z_pm = z_dm[dm_of_pm]

    phi_t = np.ascontiguousarray(model.phi[side].T)  # V rows of K floats
    # flat index of row j's topic k in nd is row_base[j] + k
    row_base = np.arange(len(order)) * n_topics
    nd_flat = nd.reshape(-1)
    uniforms_dm = np.empty(len(tokens_dm), dtype=np.float64)
    last = n_topics - 1
    for _ in range(n_iter):
        for j, rng in enumerate(rngs):
            uniforms_dm[starts[j]:starts[j + 1]] = rng.random(lens[j])
        uniforms_pm = uniforms_dm[dm_of_pm]
        for i, n_active in enumerate(active):
            lo, hi = pos_starts[i], pos_starts[i + 1]
            base = row_base[:n_active]
            nd_flat[base + z_pm[lo:hi]] -= 1
            cdf = np.cumsum((nd[:n_active] + alpha) * phi_t[tokens_pm[lo:hi]], axis=1)
            u = uniforms_pm[lo:hi] * cdf[:, last]
            k_new = np.count_nonzero(cdf <= u[:, None], axis=1)
            np.minimum(k_new, last, out=k_new)
            z_pm[lo:hi] = k_new
            nd_flat[base + k_new] += 1
    theta[order] = (nd + alpha) / (lens[:, None] + n_topics * alpha)
    return theta


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------


def model_to_json(model: TopicModel, include_counts: bool = True) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_kind": model.model_kind,
        "hyperparams": model.hyperparams.to_dict(),
        "languages": list(model.languages),
        "vocabularies": [v.word_of_id for v in model.vocabularies],
        "phi": [p.tolist() for p in model.phi],
        "theta": [t.tolist() for t in model.theta],
        "doc_ids": [list(ids) for ids in model.doc_ids],
        "doc_labels": [list(labels) for labels in model.doc_labels],
        "provenance": model.provenance,
        "counts": model.counts if include_counts else None,
    }


def _table(value, shape: tuple[int, int], name: str, counts: bool = False) -> np.ndarray:
    """A finite, non-negative float table of exactly `shape`; with `counts`,
    a table of integers instead."""
    try:
        table = np.array(value, dtype=None if counts else np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"model {name} is not a numeric table") from None
    if table.size == 0 and 0 in shape:
        return table.reshape(shape)
    if table.shape != shape:
        raise DataError(f"model {name} has shape {table.shape}, expected {shape}")
    if counts and table.dtype.kind not in "iu":
        raise DataError(f"model {name} must hold integer counts")
    if not np.isfinite(table).all() or (table < 0).any():
        raise DataError(f"model {name} must be finite and non-negative")
    return table


def _validate_counts(counts, doc_ids: tuple, vocabs: tuple, k: int) -> None:
    """The optional count tables: per-language `doc_topic` (D x K) and
    `word_topic` (V x K) pairs of non-negative integers."""
    if not isinstance(counts, dict):
        raise DataError("model 'counts' must be an object or null")
    for key in ("doc_topic", "word_topic"):
        if key not in counts:
            raise DataError(f"model counts are missing {key!r}")
        for side, table in enumerate(_pair(counts, key)):
            rows = len(doc_ids[side]) if key == "doc_topic" else vocabs[side].size
            _table(table, (rows, k), f"counts[{key!r}][{side}]", counts=True)


def _pair(payload: dict, key: str, of_lists: bool = False) -> list:
    """The per-language pair stored under `key`."""
    value = payload[key]
    if (
        not isinstance(value, list)
        or len(value) != 2
        or (of_lists and not all(isinstance(v, list) for v in value))
    ):
        raise DataError(f"model {key!r} must hold one entry per language")
    return value


def model_from_json(payload: dict) -> TopicModel:
    """Rebuild a model from its container, rejecting any malformed part
    with `DataError`."""
    if not isinstance(payload, dict):
        raise DataError("model file must contain a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported model format_version {payload.get('format_version')!r}"
        )
    required = (
        "model_kind", "hyperparams", "languages", "vocabularies",
        "phi", "theta", "doc_ids", "doc_labels",
    )
    missing = [key for key in required if key not in payload]
    if missing:
        raise DataError(f"model is missing {', '.join(map(repr, missing))}")
    if payload["model_kind"] not in MODEL_KINDS:
        raise DataError(f"unknown model_kind {payload['model_kind']!r}")
    hp_payload = payload["hyperparams"]
    if not isinstance(hp_payload, dict):
        raise DataError("model 'hyperparams' must be an object")
    expected = {f.name for f in fields(Hyperparams)}
    if set(hp_payload) != expected:
        unknown = sorted(set(hp_payload) - expected)
        absent = sorted(expected - set(hp_payload))
        raise DataError(
            f"model hyperparams: unknown keys {unknown}, missing keys {absent}"
        )
    integer_keys = ("k", "train_iterations", "infer_iterations", "seed")
    if not all(type(hp_payload[name]) is int for name in integer_keys):
        raise DataError(f"model hyperparams {', '.join(integer_keys)} must be integers")
    try:
        hp = Hyperparams.from_dict(hp_payload)
    except (ConfigError, TypeError) as exc:
        raise DataError(f"model hyperparams: {exc}") from None
    langs = _pair(payload, "languages")
    try:
        vocabs = tuple(
            Vocabulary(lang, words)
            for lang, words in zip(langs, _pair(payload, "vocabularies", True))
        )
    except TypeError:
        raise DataError("model vocabularies must be lists of words") from None
    doc_ids = tuple(_pair(payload, "doc_ids", True))
    phi = tuple(
        _table(p, (hp.k, vocabs[side].size), f"phi[{side}]")
        for side, p in enumerate(_pair(payload, "phi"))
    )
    theta = tuple(
        _table(t, (len(doc_ids[side]), hp.k), f"theta[{side}]")
        for side, t in enumerate(_pair(payload, "theta"))
    )
    counts = payload.get("counts")
    if counts is not None:
        _validate_counts(counts, doc_ids, vocabs, hp.k)
    return TopicModel(
        model_kind=payload["model_kind"],
        hyperparams=hp,
        vocabularies=vocabs,
        phi=phi,
        theta=theta,
        doc_ids=doc_ids,
        doc_labels=tuple(_pair(payload, "doc_labels", True)),
        provenance=payload.get("provenance", {}),
        counts=counts,
    )


def save_model(model: TopicModel, path: str | Path, include_counts: bool = True) -> None:
    """Write the versioned model container. Count tables are needed for
    LIS evaluation and resumable work; drop them for a smaller file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            model_to_json(model, include_counts=include_counts),
            fh, sort_keys=True, separators=(",", ":"),
        )
        fh.write("\n")


def load_model(path: str | Path) -> TopicModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_json(payload)
