"""Collapsed Gibbs samplers for the model family: per-language LDA,
hard document links (joint and conditional formulations), soft links via
transfer distributions, vocabulary links via a Dirichlet tree, and the
soft+vocabulary combination.

All randomness flows through NumPy's PCG64 generator seeded from the run
seed; held-out inference spawns one child stream per document, so results
are reproducible across platforms and independent of corpus composition.

One class holds a language's assignments and counts: `SideState`, whose
tables are contiguous int64 arrays that the training sweeps update in
place, as they update `DirichletTree`'s own count arrays. `tally_side`
builds one from the assignments; training starts from it, and
`debug_checks=True` re-tallies both sides after every iteration and
compares. The public conditional-distribution functions read a
`SideState`'s rows and expect the current token's assignment to already
be removed from all counts.

Each training sweep, and held-out inference of each document, runs a
compiled kernel from `_sweeps.c`, built and loaded by `_native`, so
`train` and `infer_heldout` need a C compiler the first time they run on
a machine (`_native.load` raises `ConfigError` without one); the other
evaluations and serialization do not. The kernels draw one uniform per
token, a side's or a document's in order, and are tested bit for bit
against the scalar loops in `tests/oracles.py`.

`save_model` writes the same bytes as one `json.dumps` call, but encodes
one innermost row at a time so the text of the whole model is never held
in memory. The phi and theta tables go to the writer as arrays: each
distinct value in a table is formatted once (phi and theta repeat a few
values, such as a topic's (n_kw + beta) / (n_k + V beta) for a handful of
counts), and each row is joined from those strings, still one row at a
time.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import _native
from .corpus import BilingualCorpus, Corpus, Vocabulary
from .dictionary import BilingualDictionary
from .errors import ConfigError, DataError
from .transfer import AnnealConfig, TransferMatrix
from .tree import DirichletTree, build_tree

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
MODEL_KINDS = ("lda", "hardlink", "softlink", "voclink", "softlink_voclink")
# kinds that put transfer pseudo-counts in the topic prior, and kinds that
# draw words through the Dirichlet tree
SOFT_KINDS = ("softlink", "softlink_voclink")
TREE_KINDS = ("voclink", "softlink_voclink")
HARDLINK_FORMULATIONS = ("conditional", "joint")
# the most uniforms held-out inference draws at once (512 KB of doubles); a
# document draws as many whole iterations' worth as fit, at least one
_UNIFORM_BLOCK = 1 << 16


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

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


@dataclass(eq=False)
class SideState:
    """Assignments and count tables for one language, as contiguous int64
    arrays that the training sweeps update in place. Document d's tokens
    are `tokens[doc_start[d]:doc_start[d + 1]]`, and `z` holds their topics
    at the same positions; `doc_topic` is D x K, `word_topic` V x K and
    `topic_total` has K entries."""

    tokens: np.ndarray
    z: np.ndarray
    doc_start: np.ndarray
    doc_topic: np.ndarray
    word_topic: np.ndarray
    topic_total: np.ndarray

    @property
    def n_topics(self) -> int:
        return len(self.topic_total)

    @property
    def vocab_size(self) -> int:
        return len(self.word_topic)

    def doc_tokens(self, doc: int) -> np.ndarray:
        return self.tokens[self.doc_start[doc]:self.doc_start[doc + 1]]


def _tally(tokens, z, doc_start, k: int, vocab_size: int):
    """The document-topic, word-topic and topic-total counts of flat
    assignments."""
    n_docs = len(doc_start) - 1
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(doc_start))
    return (
        np.bincount(doc * k + z, minlength=n_docs * k).reshape(n_docs, k),
        np.bincount(tokens * k + z, minlength=vocab_size * k).reshape(vocab_size, k),
        np.bincount(z, minlength=k),
    )


def tally_side(tokens: list, z: list, k: int, vocab_size: int) -> SideState:
    """Build a SideState from per-document token and topic sequences; its
    tables are the exact tallies of `z`."""
    if len(z) != len(tokens):
        raise DataError("assignments do not cover every document")
    for d, (toks, zd) in enumerate(zip(tokens, z)):
        if len(zd) != len(toks):
            raise DataError(f"assignments for document {d} do not match its length")
    doc_start = np.cumsum([0] + [len(toks) for toks in tokens], dtype=np.int64)
    n = int(doc_start[-1])
    flat_tokens = np.fromiter(chain.from_iterable(tokens), dtype=np.int64, count=n)
    flat_z = np.fromiter(chain.from_iterable(z), dtype=np.int64, count=n)
    # the compiled sweeps index the tables with these values unchecked
    for values, bound, name in ((flat_tokens, vocab_size, "word ids"), (flat_z, k, "topics")):
        if n and (values.min() < 0 or values.max() >= bound):
            raise DataError(f"{name} must lie in [0, {bound})")
    return SideState(
        flat_tokens, flat_z, doc_start, *_tally(flat_tokens, flat_z, doc_start, k, vocab_size)
    )


def _check_counts(*arrays) -> None:
    for arr in arrays:
        if (np.asarray(arr) < 0).any():
            raise DataError("negative count detected (internal corruption)")


def _token_rows(side: SideState, doc: int, word: int):
    """The document's and the word's topic-count rows and the topic
    totals; a negative count is a `DataError`."""
    rows = (side.doc_topic[doc], side.word_topic[word], side.topic_total)
    _check_counts(*rows)
    return rows


def _word_factor(nw: np.ndarray, nk: np.ndarray, vocab_size: int, hp: Hyperparams) -> np.ndarray:
    return (nw + hp.beta) / (nk + vocab_size * hp.beta)


def lda_conditional(side: SideState, doc: int, pos: int, hp: Hyperparams) -> np.ndarray:
    """p(k) for one token under per-language LDA, current token excluded."""
    nd, nw, nk = _token_rows(side, doc, side.doc_tokens(doc)[pos])
    p = (nd + hp.alpha) * _word_factor(nw, nk, side.vocab_size, hp)
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
    nd, nw, nk = _token_rows(side, doc, side.doc_tokens(doc)[pos])
    partner = np.asarray(partner_counts)
    if (partner < 0).any():
        raise DataError("negative partner counts")
    p = (nd + partner + hp.alpha) * _word_factor(nw, nk, side.vocab_size, hp)
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
    nd, nw, nk = _token_rows(side, doc, side.doc_tokens(doc)[pos])
    p = (nd + prior_pseudo + hp.alpha) * _word_factor(nw, nk, side.vocab_size, hp)
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
        return (np.asarray(side.word_topic[word]) + hp.beta) / den
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
    word = side.doc_tokens(doc)[pos]
    nd, _, _ = _token_rows(side, doc, word)
    _check_counts(tree.concept_topic, tree.untrans_total[side_index])
    p = (nd + hp.alpha) * voclink_tree_factor(side, tree, side_index, word, hp)
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


def _init_side(
    corpus: Corpus, k: int, rng, tree: DirichletTree | None, side: int
) -> tuple[SideState, np.ndarray]:
    """Draw each document's topics; with a `tree`, also draw each token's
    tree leaf right after its document's topics (a word in several
    concepts draws one of them) and count the paths in the tree. Returns
    the tallied state and the flat tree paths (-1 for a word's own root
    leaf; empty without a tree)."""
    tokens = [d.tokens for d in corpus.documents]
    z = []
    paths: list[int] = []
    for toks in tokens:
        z.append(rng.integers(0, k, size=len(toks)))
        if tree is not None:
            for w in toks:
                ms = tree.concepts_of_word[side][w]
                if not ms:
                    paths.append(-1)
                else:
                    paths.append(ms[0] if len(ms) == 1 else ms[int(rng.integers(0, len(ms)))])
    state = tally_side(tokens, z, k, corpus.vocabulary.size)
    flat_paths = np.array(paths, dtype=np.int64)
    if tree is not None:
        tree.add_paths(side, state.z, flat_paths)
    return state, flat_paths


def _pseudo_counts(matrix: TransferMatrix, source_ndk: np.ndarray) -> np.ndarray:
    """Soft-link pseudo-counts (D x K): row d is the weighted mixture of the
    source documents' topic counts that transfer row d names, zero for an
    empty row. One `weights @ source[idx]` per row keeps the summation
    order of `softlink_prior`."""
    source = source_ndk.astype(np.float64)
    pseudo = np.zeros((len(matrix.rows), source.shape[1]), dtype=np.float64)
    for d, (idx, weights) in enumerate(matrix.rows):
        if len(idx):
            pseudo[d] = weights @ source[idx]
    return pseudo


def _plain_sweep(lib, side: SideState, priors: np.ndarray, beta: float, rng) -> None:
    """The `sweep_plain` kernel over one side; `priors` is D x K."""
    k = side.n_topics
    lib.sweep_plain(
        len(side.doc_topic), k, side.doc_start, side.tokens, side.z, side.doc_topic,
        priors, side.word_topic, side.topic_total, beta, side.vocab_size * beta,
        rng.random(len(side.tokens)), np.empty(k),
    )


def _pooled_sweep(
    lib, side: SideState, pool_of_doc: np.ndarray, pools: np.ndarray, hp: Hyperparams, rng
) -> None:
    """The `sweep_pooled` kernel over one side: document d draws from row
    `pools[pool_of_doc[d]]`, or from its own row where that is -1."""
    k = side.n_topics
    lib.sweep_pooled(
        len(side.doc_topic), k, side.doc_start, side.tokens, side.z, side.doc_topic,
        pool_of_doc, pools, hp.alpha, side.word_topic, side.topic_total,
        hp.beta, side.vocab_size * hp.beta, rng.random(len(side.tokens)), np.empty(k),
    )


def _tree_sweep(
    lib, side: SideState, paths: np.ndarray, priors: np.ndarray,
    tree: DirichletTree, s: int, hp: Hyperparams, rng,
) -> None:
    """The `sweep_tree` kernel over side `s`, with its flat `paths`,
    updating the tree's counts too."""
    starts = tree.member_start[s]
    # the running sums of the word with the most concepts
    cdf = np.empty(int(np.diff(starts).max(initial=1)) * side.n_topics)
    lib.sweep_tree(
        len(side.doc_topic), side.n_topics, side.doc_start, side.tokens, side.z, paths,
        side.doc_topic, priors, side.word_topic, side.topic_total,
        starts, tree.member_concepts[s], tree.concept_topic, tree.leaf_topic[s],
        tree.concept_total, tree.untrans_total[s],
        hp.beta, hp.beta_root, hp.beta_internal, tree.root_children_prior(s, hp.beta_root, hp.beta),
        rng.random(len(side.tokens)), cdf,
    )


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
    for s, side in enumerate((corpus.side1, corpus.side2), start=1):
        if not side.documents:
            raise DataError(f"side {s} ({side.language!r}) of the corpus has no documents")
    uses_soft = model_kind in SOFT_KINDS
    uses_tree = model_kind in TREE_KINDS

    if uses_soft:
        if transfer_to_side1 is None or transfer_to_side2 is None:
            raise ConfigError(f"{model_kind} requires transfer matrices in both directions")
        _validate_matrix(transfer_to_side1, corpus.side1, corpus.side2)
        _validate_matrix(transfer_to_side2, corpus.side2, corpus.side1)
    if uses_tree:
        if tree is None:
            if dictionary is None:
                raise ConfigError(f"{model_kind} requires a Dirichlet tree or a dictionary")
            tree = build_tree(dictionary, corpus.side1.vocabulary, corpus.side2.vocabulary, hp.k)
        if tree.n_topics != hp.k:
            raise ConfigError("tree topic count does not match hyperparameters")
        if tree.vocab_sizes != (corpus.side1.vocabulary.size, corpus.side2.vocabulary.size):
            raise ConfigError("tree was built against different vocabularies")
        # the sweeps update the tree's count arrays in place
        tree.zero_counts()
    else:
        tree = None  # a tree passed with another model kind goes unused
    if hardlink_formulation not in HARDLINK_FORMULATIONS:
        raise ConfigError(f"unknown hardlink formulation {hardlink_formulation!r}")
    if anneal is not None and anneal.schedule != "none" and not uses_soft:
        raise ConfigError("annealing schedules only apply to soft-link models")
    # built before any sampling: it refuses an adaptive schedule without a
    # dictionary, or with too few concepts for LIS
    scheduler = AnnealScheduler(
        anneal,
        [transfer_to_side1, transfer_to_side2] if uses_soft else [],
        dictionary=dictionary, hp=hp, seed=hp.seed,
    )

    lib = _native.load()
    rng = np.random.default_rng(hp.seed)
    sides, paths = zip(*(
        _init_side(c, hp.k, rng, tree, s) for s, c in enumerate((corpus.side1, corpus.side2))
    ))

    # hard links, one (side-1 document, side-2 document) row per pair:
    # under the conditional formulation each side's rows carry their
    # partners' counts while that side is swept; under the joint one each
    # pair shares one row of `pools`, and pool_of_doc[s][d] names document
    # d's row (-1 for an unlinked document)
    joint = model_kind == "hardlink" and hardlink_formulation == "joint"
    links = np.array(corpus.hard_links if model_kind == "hardlink" else [], dtype=np.int64)
    links = links.reshape(-1, 2)
    pool_of_doc = tuple(np.full(len(side.doc_topic), -1, dtype=np.int64) for side in sides)
    pools = np.zeros((0, hp.k), dtype=np.int64)
    if joint:
        pools = sides[0].doc_topic[links[:, 0]] + sides[1].doc_topic[links[:, 1]]
        for s in (0, 1):
            pool_of_doc[s][links[:, s]] = np.arange(len(links))
    partner_links = links[:0] if joint else links

    alpha = hp.alpha
    priors = tuple(np.full((len(side.doc_topic), hp.k), alpha) for side in sides)
    for iteration in range(1, hp.train_iterations + 1):
        if uses_soft:
            priors = tuple(
                _pseudo_counts(scheduler.matrices[s], sides[1 - s].doc_topic) + alpha
                for s in (0, 1)
            )
        for s in (0, 1):
            side = sides[s]
            if uses_tree:
                _tree_sweep(lib, side, paths[s], priors[s], tree, s, hp, rng)
            elif joint:
                _pooled_sweep(lib, side, pool_of_doc[s], pools, hp, rng)
            else:
                # the partner rows belong to the other side, so they hold
                # still while this side is swept
                own, partner = partner_links[:, s], partner_links[:, 1 - s]
                side.doc_topic[own] += sides[1 - s].doc_topic[partner]
                _plain_sweep(lib, side, priors[s], hp.beta, rng)
                side.doc_topic[own] -= sides[1 - s].doc_topic[partner]
        scheduler.after_iteration(iteration, lambda: tuple(side.word_topic for side in sides))
        if debug_checks:
            _run_debug_checks(sides, tree, links, pool_of_doc, pools)

    scheduler.finish()
    return _assemble_model(model_kind, corpus, hp, sides, tree, scheduler, hardlink_formulation)


def _run_debug_checks(sides, tree, links, pool_of_doc, pools) -> None:
    for s, side in enumerate(sides, start=1):
        tallied = _tally(side.tokens, side.z, side.doc_start, side.n_topics, side.vocab_size)
        if not all(map(np.array_equal, tallied, (side.doc_topic, side.word_topic, side.topic_total))):
            raise DataError(f"side {s} count tables out of sync with its assignments")
    if tree is not None:
        tree.check_consistency(tuple(side.word_topic for side in sides))
    # joint hard links: each pooled row must stay the sum of its two
    # linked rows
    pooled = links[pool_of_doc[0][links[:, 0]] >= 0]
    sums = sides[0].doc_topic[pooled[:, 0]] + sides[1].doc_topic[pooled[:, 1]]
    bad = np.flatnonzero((pools[pool_of_doc[0][pooled[:, 0]]] != sums).any(axis=1))
    if len(bad):
        i1, i2 = pooled[bad[0]].tolist()
        raise DataError(
            f"pooled hard-link counts of documents {i1} and {i2} are not "
            "the sum of their topic counts"
        )


def _phi_plain(state: SideState, hp: Hyperparams) -> np.ndarray:
    nwk = state.word_topic.astype(np.float64)
    nk = state.topic_total.astype(np.float64)
    return ((nwk + hp.beta) / (nk + state.vocab_size * hp.beta)).T


def _phi_tree(state: SideState, tree: DirichletTree, side: int, hp: Hyperparams) -> np.ndarray:
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
    vals = np.zeros((state.vocab_size, hp.k), dtype=np.float64)
    if tree.n_concepts:
        np.add.at(vals, tree.concept_word[side], concept_vals)
    untranslated = np.diff(tree.member_start[side]) == 0
    nwk = state.word_topic.astype(np.float64)
    vals[untranslated] = nwk[untranslated] + hp.beta
    phi = (vals / den).T
    return phi / phi.sum(axis=1, keepdims=True)


def _assemble_model(
    model_kind, corpus, hp, sides, tree, scheduler, hardlink_formulation
) -> TopicModel:
    uses_soft = model_kind in SOFT_KINDS
    alpha = hp.alpha

    phi = tuple(
        _phi_plain(sides[s], hp) if tree is None else _phi_tree(sides[s], tree, s, hp)
        for s in (0, 1)
    )

    links = np.array(corpus.hard_links, dtype=np.int64).reshape(-1, 2)
    thetas = []
    for s in (0, 1):
        side = sides[s]
        ndk = side.doc_topic.astype(np.float64)
        lengths = np.diff(side.doc_start).astype(np.float64)
        if uses_soft:
            pseudo = _pseudo_counts(scheduler.matrices[s], sides[1 - s].doc_topic)
        else:
            pseudo = np.zeros_like(ndk)
        if model_kind == "hardlink":
            # the linked partner's topic counts
            pseudo[links[:, s]] = sides[1 - s].doc_topic[links[:, 1 - s]]
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
        "doc_topic": [side.doc_topic.tolist() for side in sides],
        "word_topic": [side.word_topic.tolist() for side in sides],
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

    Each document is sampled alone by the compiled `infer_doc` kernel,
    from its own spawned random stream: `integers(0, K, n)` for the
    initial topics, then one `random(n)` per iteration, drawn a block of
    whole iterations at a time (one `random(b * n)` call gives the doubles
    of b `random(n)` calls), at most `_UNIFORM_BLOCK` doubles per draw.
    Results therefore do not depend on document order or on what else is
    in the corpus. An empty document keeps the uniform row.
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
    vocab_size = heldout.vocabulary.size
    # the kernel indexes phi with the word ids and topics unchecked
    if model.phi[side].shape != (n_topics, vocab_size):
        raise DataError(
            f"phi of shape {model.phi[side].shape} does not match k = {n_topics} "
            f"and {vocab_size} words"
        )
    if any(
        len(doc.tokens) and not 0 <= min(doc.tokens) <= max(doc.tokens) < vocab_size
        for doc in docs
    ):
        raise DataError(f"word ids must lie in [0, {vocab_size})")
    lib = _native.load()
    phi_t = np.ascontiguousarray(model.phi[side].T)  # V rows of K floats
    cdf = np.empty(n_topics)

    theta = np.full((len(docs), n_topics), 1.0 / n_topics)
    streams = np.random.SeedSequence(seed).spawn(len(docs))
    for d, doc in enumerate(docs):
        n = len(doc.tokens)
        if n == 0:
            continue
        rng = np.random.default_rng(streams[d])
        tokens = np.array(doc.tokens, dtype=np.int64)
        z = rng.integers(0, n_topics, size=n)
        nd = np.bincount(z, minlength=n_topics)
        per_draw = max(1, _UNIFORM_BLOCK // n)
        for done in range(0, n_iter, per_draw):
            block = min(per_draw, n_iter - done)
            lib.infer_doc(
                n, n_topics, block, tokens, z, nd, phi_t, alpha, rng.random(block * n), cdf
            )
        theta[d] = (nd + alpha) / (n + n_topics * alpha)
    return theta


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------


def _model_parts(model: TopicModel, include_counts: bool) -> dict:
    """The model container, with phi and theta as float64 arrays."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_kind": model.model_kind,
        "hyperparams": model.hyperparams.to_dict(),
        "languages": list(model.languages),
        "vocabularies": [v.word_of_id for v in model.vocabularies],
        "phi": list(model.phi),
        "theta": list(model.theta),
        "doc_ids": [list(ids) for ids in model.doc_ids],
        "doc_labels": [list(labels) for labels in model.doc_labels],
        "provenance": model.provenance,
        "counts": model.counts if include_counts else None,
    }


def model_to_json(model: TopicModel, include_counts: bool = True) -> dict:
    """The model container as plain JSON values: what `save_model` writes."""
    payload = _model_parts(model, include_counts)
    for key in ("phi", "theta"):
        payload[key] = [table.tolist() for table in payload[key]]
    return payload


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


# one encoder for every piece: json.dumps would build a new one per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _write_table(table: np.ndarray, write) -> None:
    """Write `_dumps(table.tolist())` for a 2-D float64 table through
    `write`, one row at a time. Each distinct value is formatted once:
    `np.unique` on the raw bits (so -0.0 and 0.0 keep their own text)
    gives one `repr` per value, the text the encoder writes for a float,
    and every row is joined from those strings."""
    if not np.isfinite(table).all():
        raise ValueError("Out of range float values are not JSON compliant")
    n_rows, n_cols = table.shape
    if n_rows == 0:
        write("[]")
        return
    bits = np.ascontiguousarray(table).view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    sep = "["
    for row in text[inverse.reshape(n_rows, n_cols)].tolist():
        write(sep + "[" + ",".join(row) + "]")
        sep = ","
    write("]")


def _write_parts(value, write) -> None:
    """Write `_dumps(value)` through `write` piece by piece: objects with
    string keys and lists of lists or objects are opened here, a 2-D
    float64 array goes to `_write_table` (and writes as its `tolist()`
    would), and every other value (an innermost row, a string, a number)
    goes to the C encoder whole. Only one row's text is held at a time;
    encoding the whole payload at once keeps a string per number until
    the end."""
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        sep = "{"
        for key in sorted(value):
            write(sep + _dumps(key) + ":")
            _write_parts(value[key], write)
            sep = ","
        write("}")
    elif isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.ndim == 2:
            _write_table(value, write)
        else:
            _write_parts(value.tolist(), write)
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict, np.ndarray)):
        sep = "["
        for item in value:
            write(sep)
            _write_parts(item, write)
            sep = ","
        write("]")
    else:
        write(_dumps(value))


def write_json(payload, path: str | Path) -> None:
    """Write `payload` as one line of compact JSON with sorted keys: the
    bytes of `json.dumps(payload, sort_keys=True, separators=(",", ":"))`
    plus a newline, with each numpy array in it written as its `tolist()`. A NaN or infinity raises `DataError` and leaves no
    file behind, so a non-finite table is never saved."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            _write_parts(payload, fh.write)
        except ValueError as exc:  # the encoder met a NaN or infinity
            fh.close()
            Path(path).unlink()
            raise DataError(f"cannot write {path}: {exc}") from None
        fh.write("\n")


def save_model(model: TopicModel, path: str | Path, include_counts: bool = True) -> None:
    """Write the versioned model container. Count tables are needed for
    LIS evaluation and resumable work; drop them for a smaller file."""
    write_json(_model_parts(model, include_counts), path)


def load_model(path: str | Path) -> TopicModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_json(payload)
