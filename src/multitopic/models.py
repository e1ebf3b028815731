"""Collapsed Gibbs samplers for the model family: per-language LDA,
hard document links (joint and conditional formulations, which sample
identically and so share one sweep), soft links via transfer
distributions, vocabulary links via a Dirichlet tree, and the
soft+vocabulary combination.

All randomness flows through NumPy's PCG64 generator seeded from the run
seed; held-out inference spawns one child stream per document, so results
are reproducible across platforms and independent of corpus composition.

One class holds a language's assignments and counts: `SideState`, whose
tables are contiguous int64 arrays that the training sweeps update in
place, as they update `DirichletTree`'s own count arrays; its word ids
are the corpus's token table, shared. `tally_side` builds one from the
assignments; training starts from it, and `debug_checks=True` re-tallies
both sides after every iteration and compares. One reference
conditional, `token_conditional`, covers every kind: knowledge from the
other language is a pseudo-count in the document's topic prior, and
vocabulary links change only the word term. Training forms those
pseudo-counts by one transfer table per side for every kind (`train`).

Every model kind trains with one compiled kernel, the Dirichlet-tree
sweep: vocabulary-link kinds over the dictionary's tree, the others over
a tree without concepts, where each word is its own root leaf and the
sweep scores exactly what LDA scores. It and held-out inference of each
document run from `_sweeps.c`, built and loaded by `_native`, so
`train` and `infer_heldout` need a C compiler the first time they run on
a machine (`_native.load` raises `ConfigError` without one); the other
evaluations and serialization do not. The kernels draw one uniform per
token, a side's or a document's in order, and are tested bit for bit
against the scalar loops in `tests/oracles.py`.

`save_model` hands every numeric table to `corpus.write_json` as an
array, which formats each distinct value once (phi and theta repeat a
few values, such as a topic's (n_kw + beta) / (n_k + V beta) for a
handful of counts, and counts repeat small integers): phi and theta as
float64, the count tables as the int64 arrays the sweep updated, which
`TopicModel.counts` holds and `load_model` rebuilds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import _native
from .corpus import BilingualCorpus, Corpus, Vocabulary, read_json, write_json
from .dictionary import BilingualDictionary, grouped
from .errors import ConfigError, DataError
from .schedule import AnnealScheduler
from .settings import Key, Settings, declared, setting
from .transfer import AnnealConfig, TransferMatrix
from .tree import DirichletTree, build_tree

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
# the `model` and `hardlink_formulation` settings, which `train` checks
MODEL = Key("lda", "enum", choices=("lda", "hardlink", "softlink", "voclink", "softlink_voclink"))
HARDLINK_FORMULATION = Key("conditional", "enum", choices=("conditional", "joint"))
# kinds that put transfer pseudo-counts in the topic prior, and kinds that
# draw words through the Dirichlet tree
SOFT_KINDS = ("softlink", "softlink_voclink")
TREE_KINDS = ("voclink", "softlink_voclink")
# the most uniforms held-out inference draws at once (512 KB of doubles); a
# document draws as many whole iterations' worth as fit, at least one
_UNIFORM_BLOCK = 1 << 16


@dataclass
class Hyperparams(Settings):
    """The sampler's settings, each declared on its field and checked on
    construction: a value the `train` config refuses raises `ConfigError`
    naming the key."""

    k: int = setting(25, "int", "[2, inf)")
    alpha: float = setting(0.1, "float", "(0, inf)")
    beta: float = setting(0.01, "float", "(0, inf)")
    beta_root: float = setting(0.01, "float", "(0, inf)")
    beta_internal: float = setting(100.0, "float", "(0, inf)")
    train_iterations: int = setting(1000, "int", "[1, inf)")
    infer_iterations: int = setting(500, "int", "[1, inf)")
    seed: int = setting(0, "int", "[0, inf)")


class SideState:
    """Assignments and count tables for one language, as contiguous int64
    arrays that the training sweeps update in place. Document d's tokens
    are `tokens[doc_start[d]:doc_start[d + 1]]`, and `z` holds their topics
    at the same positions; `doc_topic` is D x K and `word_topic` V x K.
    `topic_total` is summed from `word_topic` when read, unless the state
    was built with totals of its own."""

    def __init__(self, tokens, z, doc_start, doc_topic, word_topic, topic_total=None):
        self.tokens, self.z, self.doc_start = tokens, z, doc_start
        self.doc_topic, self.word_topic = doc_topic, word_topic
        self._given_total = topic_total

    @property
    def topic_total(self) -> np.ndarray:
        if self._given_total is None:
            return self.word_topic.sum(axis=0)
        return self._given_total

    @property
    def n_topics(self) -> int:
        return self.word_topic.shape[1]

    @property
    def vocab_size(self) -> int:
        return len(self.word_topic)

    def doc_tokens(self, doc: int) -> np.ndarray:
        return self.tokens[self.doc_start[doc]:self.doc_start[doc + 1]]


def _tally(tokens, z, doc_start, k: int, vocab_size: int):
    """The document-topic and word-topic counts of flat assignments."""
    n_docs = len(doc_start) - 1
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(doc_start))
    return (
        np.bincount(doc * k + z, minlength=n_docs * k).reshape(n_docs, k),
        np.bincount(tokens * k + z, minlength=vocab_size * k).reshape(vocab_size, k),
    )


def _check_ids(values: np.ndarray, bound: int, name: str) -> None:
    # the compiled kernels index the count tables with these values unchecked
    if len(values) and (values.min() < 0 or values.max() >= bound):
        raise DataError(f"{name} must lie in [0, {bound})")


def tally_side(tokens, z, doc_start, k: int, vocab_size: int) -> SideState:
    """Build a SideState from flat int64 word ids and topics, document d
    at positions `doc_start[d]:doc_start[d + 1]`. The state holds the
    arrays given, not copies, and its tables are the exact tallies of `z`."""
    tokens, z, doc_start = (np.asarray(a, dtype=np.int64) for a in (tokens, z, doc_start))
    if not len(z) == len(tokens) == doc_start[-1]:
        raise DataError("assignments and document offsets must cover every token")
    _check_ids(tokens, vocab_size, "word ids")
    _check_ids(z, k, "topics")
    return SideState(tokens, z, doc_start, *_tally(tokens, z, doc_start, k, vocab_size))


def _check_counts(*arrays) -> None:
    for arr in arrays:
        if (np.asarray(arr) < 0).any():
            raise DataError("negative count detected (internal corruption)")


def _tree_word_term(side: SideState, tree: DirichletTree, s: int, word: int, hp: Hyperparams):
    """The word term in the Dirichlet tree: summed path products over the
    word's leaves. An untranslated word uses its direct root leaf, so a
    tree without concepts gives the plain word term exactly."""
    den = tree.root_total(s) + tree.root_children_prior(s, hp.beta_root, hp.beta)
    starts = tree.member_start[s]
    concepts = tree.member_concepts[s][starts[word]:starts[word + 1]]
    if not len(concepts):
        return (side.word_topic[word] + hp.beta) / den
    node, leaf = tree.concept_topic[concepts], tree.leaf_topic[s][concepts]
    paths = (node + hp.beta_root) / den * (leaf + hp.beta_internal) / (node + 2.0 * hp.beta_internal)
    return paths.sum(axis=0)


def token_conditional(
    side: SideState, doc: int, pos: int, hp: Hyperparams,
    pseudo=None, tree: DirichletTree | None = None, side_index: int = 0,
) -> np.ndarray:
    """p(k) for token `pos` of document `doc`, the token already removed
    from every count: (n_dk + pseudo_k + alpha) times the word term,
    normalised. `pseudo` is the document's row of `TransferMatrix.mix`
    (None under LDA). The word term is (n_wk + beta) / (n_k + V beta), or
    with `tree` side `side_index`'s path sum (vocabulary links). A negative
    count, or a `pseudo` that is not K finite non-negative numbers, is a
    `DataError`."""
    word = side.doc_tokens(doc)[pos]
    nd, nw, nk = side.doc_topic[doc], side.word_topic[word], side.topic_total
    _check_counts(nd, nw, nk)
    if pseudo is not None:
        pseudo = np.asarray(pseudo)
        if pseudo.shape != (side.n_topics,) or not np.isfinite(pseudo).all() or (pseudo < 0).any():
            raise DataError(f"pseudo-counts must be {side.n_topics} finite non-negative numbers")
        nd = nd + pseudo
    if tree is None:
        term = (nw + hp.beta) / (nk + side.vocab_size * hp.beta)
    else:
        _check_counts(tree.concept_topic, tree.untrans_total[side_index])
        term = _tree_word_term(side, tree, side_index, word, hp)
    p = (nd + hp.alpha) * term
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
    corpus: Corpus, k: int, rng, tree: DirichletTree, side: int
) -> tuple[SideState, np.ndarray]:
    """Draw each document's topics, then its words' tree leaves (one
    `rng.integers(0, counts)` call over the words in several concepts, in
    token order; none in a tree without such words) and count the paths in
    the tree. Returns the tallied state, which holds the corpus's token
    table, and the flat tree paths (-1 for a word's own root leaf)."""
    tokens, doc_start = corpus.tokens, corpus.doc_start
    _check_ids(tokens, corpus.vocabulary.size, "word ids")  # they index the tree below
    starts, members = tree.member_start[side], tree.member_concepts[side]
    z = np.empty(len(tokens), dtype=np.int64)
    paths = np.full(len(tokens), -1, dtype=np.int64)
    for a, b in zip(doc_start[:-1].tolist(), doc_start[1:].tolist()):
        z[a:b] = rng.integers(0, k, size=b - a)
        words = tokens[a:b]
        first = starts[words]
        counts = starts[words + 1] - first
        several = counts > 1
        if several.any():
            first[several] += rng.integers(0, counts[several])
        paths[a:b][counts > 0] = members[first[counts > 0]]
    state = tally_side(tokens, z, doc_start, k, corpus.vocabulary.size)
    tree.add_paths(side, state.z, paths)
    return state, paths


def _tree_sweep(
    lib, side: SideState, paths: np.ndarray, priors: np.ndarray,
    tree: DirichletTree, s: int, hp: Hyperparams, rng,
) -> None:
    """The `sweep_tree` kernel over side `s`, with its flat `paths`,
    updating the tree's counts too."""
    starts = tree.member_start[s]
    k = side.n_topics
    # the running sums of the word with the most concepts
    cdf = np.empty(int(np.diff(starts).max(initial=1)) * k)
    unscored = lib.sweep_tree(
        len(side.doc_topic), k, side.doc_start, side.tokens, side.z, paths,
        side.doc_topic, priors, side.word_topic, starts, tree.member_concepts[s],
        tree.concept_topic, tree.leaf_topic[s], tree.concept_total, tree.untrans_total[s],
        hp.beta, hp.beta_root, hp.beta_internal, tree.root_children_prior(s, hp.beta_root, hp.beta),
        rng.random(len(side.tokens)), cdf, np.empty(k),
    )
    if unscored:
        in_tree = ("beta_root", "beta_internal") if tree.n_concepts else ()
        raise _unscored(hp, "alpha", "beta", *in_tree)


def _unscored(hp: Hyperparams, *names) -> ConfigError:
    """The error for a token whose topic scores did not sum to a positive
    finite number: the settings `names` made them overflow."""
    given = ", ".join(f"{name} {getattr(hp, name)!r}" for name in names)
    return ConfigError(f"a token's topic scores have no positive finite sum under {given}")


def _iteration(lib, sides, paths, tables, snapshot, tree, hp, rng) -> None:
    """One training iteration, side 1 then side 2, each side's prior alpha
    plus its table's mix of the other side's document-topic counts: with
    `snapshot`, the counts as the iteration began; else the live ones."""
    sources = [side.doc_topic.copy() if snapshot else side.doc_topic for side in sides]
    for s in (0, 1):
        priors = tables[s].mix(sources[1 - s]) + hp.alpha
        _tree_sweep(lib, sides[s], paths[s], priors, tree, s, hp, rng)


def _hard_links(corpus: BilingualCorpus, links) -> list[TransferMatrix]:
    """The tables to side 1 and to side 2 of `links`, (side-1 doc, side-2
    doc) pairs, a linked row naming its partner with weight 1.0. A link to
    a missing document, or a document in two links, is a `DataError`: only
    one-to-one links make the joint and conditional formulations agree."""
    links = np.array(links, dtype=np.int64).reshape(-1, 2)
    sides, tables = (corpus.side1, corpus.side2), []
    for s, side in enumerate(sides):
        docs, n = links[:, s], len(side.documents)
        bad = np.flatnonzero((docs < 0) | (docs >= n))
        if len(bad):
            i1, i2 = links[bad[0]].tolist()
            raise DataError(
                f"hard link ({i1}, {i2}) names a side {s + 1} document outside [0, {n})"
            )
        starts, partners = grouped(docs, links[:, 1 - s], n)
        shared = np.flatnonzero(np.diff(starts) > 1)
        if len(shared):
            raise DataError(f"side {s + 1} document {shared[0]} has more than one hard link")
        tables.append(TransferMatrix(
            side.language, sides[1 - s].language, starts, partners, np.ones(len(links)),
        ))
    return tables


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

    Every kind has one transfer table per side: a document's prior, and
    theta, take alpha plus its row's mix of the other side's counts
    (`TransferMatrix.mix`). Soft links mix the given matrices over the
    counts as the iteration began (annealing, at iteration end, replaces
    the scheduler's copies). Hard links mix one-to-one weight-1 rows over
    the partner's live counts, as a pair sharing one theta would (joint),
    so `hardlink_formulation` is only recorded. LDA and vocabulary links
    have empty tables; a link kind with two empty tables warns.

    Every kind runs the one Dirichlet-tree sweep. Kinds without
    vocabulary links run it over a tree without concepts, where every
    word sits on its own root leaf and the tree is the ordinary Dirichlet
    prior of LDA; their phi is read from the side tables. A prior so large
    that a token's topic scores overflow raises `ConfigError` naming it.
    """
    model_kind = MODEL.check("model", model_kind)
    hardlink_formulation = HARDLINK_FORMULATION.check("hardlink_formulation", hardlink_formulation)
    for s, side in enumerate((corpus.side1, corpus.side2), start=1):
        if not side.documents:
            raise DataError(f"side {s} ({side.language!r}) of the corpus has no documents")
    uses_soft = model_kind in SOFT_KINDS
    uses_tree = model_kind in TREE_KINDS
    if uses_soft:
        if transfer_to_side1 is None or transfer_to_side2 is None:
            raise ConfigError(f"{model_kind} requires transfer matrices in both directions")
        tables = [transfer_to_side1, transfer_to_side2]
    else:
        tables = _hard_links(corpus, corpus.hard_links if model_kind == "hardlink" else [])
    tables[0].check(corpus.side1, corpus.side2)
    tables[1].check(corpus.side2, corpus.side1)
    if model_kind in ("hardlink", *SOFT_KINDS) and not any(len(table.idx) for table in tables):
        reason = "no transfer table holds an entry" if uses_soft else "no document pair is hard-linked"
        base = "voclink" if uses_tree else "per-language LDA"
        logger.warning("%s, so the %s model is %s", reason, model_kind, base)
    if dictionary is not None:
        dictionary.check_vocabularies((corpus.side1.vocabulary.size, corpus.side2.vocabulary.size))
    v1, v2 = corpus.side1.vocabulary, corpus.side2.vocabulary
    if uses_tree:
        if tree is None:
            if dictionary is None:
                raise ConfigError(f"{model_kind} requires a Dirichlet tree or a dictionary")
            tree = build_tree(dictionary, v1, v2, hp.k)
        if tree.n_topics != hp.k:
            raise ConfigError("tree topic count does not match hyperparameters")
        if tree.vocab_sizes != (v1.size, v2.size):
            raise ConfigError("tree was built against different vocabularies")
        # the sweeps update the tree's count arrays in place
        tree.zero_counts()
    else:
        # a tree passed with another model kind goes unused
        tree = build_tree(BilingualDictionary(v1.language, v2.language, []), v1, v2, hp.k)
    if anneal is not None and anneal.schedule != "none" and not uses_soft:
        raise ConfigError("annealing schedules only apply to soft-link models")
    # built before any sampling: it refuses an adaptive schedule without a
    # dictionary, or with too few concepts for LIS
    scheduler = AnnealScheduler(anneal, tables, dictionary=dictionary, hp=hp, seed=hp.seed)

    lib = _native.load()
    rng = np.random.default_rng(hp.seed)
    sides, paths = zip(*(
        _init_side(c, hp.k, rng, tree, s) for s, c in enumerate((corpus.side1, corpus.side2))
    ))

    for iteration in range(1, hp.train_iterations + 1):
        _iteration(lib, sides, paths, scheduler.matrices, uses_soft, tree, hp, rng)
        scheduler.after_iteration(iteration, lambda: tuple(side.word_topic for side in sides))
        if debug_checks:
            _run_debug_checks(sides, tree)

    scheduler.finish()
    # a concept-free tree's phi is the plain one, without _phi_tree's renormalisation
    return _assemble_model(
        model_kind, corpus, hp, sides, tree if uses_tree else None, scheduler, hardlink_formulation
    )


def _run_debug_checks(sides, tree) -> None:
    for s, side in enumerate(sides, start=1):
        tallied = _tally(side.tokens, side.z, side.doc_start, side.n_topics, side.vocab_size)
        if not all(map(np.array_equal, tallied, (side.doc_topic, side.word_topic))):
            raise DataError(f"side {s} count tables out of sync with its assignments")
    tree.check_consistency(tuple(side.word_topic for side in sides))


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
    np.add.at(vals, tree.words[:, side], concept_vals)
    untranslated = np.diff(tree.member_start[side]) == 0
    nwk = state.word_topic.astype(np.float64)
    vals[untranslated] = nwk[untranslated] + hp.beta
    phi = (vals / den).T
    return phi / phi.sum(axis=1, keepdims=True)


def _assemble_model(model_kind, corpus, hp, sides, tree, scheduler, hardlink_formulation) -> TopicModel:
    alpha = hp.alpha

    phi = tuple(
        _phi_plain(sides[s], hp) if tree is None else _phi_tree(sides[s], tree, s, hp)
        for s in (0, 1)
    )

    thetas = []
    for s in (0, 1):
        side = sides[s]
        ndk = side.doc_topic.astype(np.float64)
        lengths = np.diff(side.doc_start).astype(np.float64)
        pseudo = scheduler.matrices[s].mix(sides[1 - s].doc_topic)
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
        "doc_topic": [side.doc_topic for side in sides],
        "word_topic": [side.word_topic for side in sides],
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
    in the corpus. An empty document keeps the uniform row. `seed` and
    `iterations` are checked as `seed` and `infer_iterations` are.
    """
    seed = Hyperparams.checked("seed", seed)
    if iterations is not None:
        iterations = declared(Hyperparams)["infer_iterations"].check("iterations", iterations)
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
    vocab_size = heldout.vocabulary.size
    # the kernel indexes phi with the word ids and topics unchecked
    if model.phi[side].shape != (n_topics, vocab_size):
        raise DataError(
            f"phi of shape {model.phi[side].shape} does not match k = {n_topics} "
            f"and {vocab_size} words"
        )
    tokens, doc_start = heldout.tokens, heldout.doc_start
    _check_ids(tokens, vocab_size, "word ids")
    lib = _native.load()
    phi_t = np.ascontiguousarray(model.phi[side].T)  # V rows of K floats
    cdf = np.empty(n_topics)

    theta = np.full((len(heldout), n_topics), 1.0 / n_topics)
    streams = np.random.SeedSequence(seed).spawn(len(heldout))
    for d, (a, b) in enumerate(zip(doc_start[:-1].tolist(), doc_start[1:].tolist())):
        n = b - a
        if n == 0:
            continue
        rng = np.random.default_rng(streams[d])
        z = rng.integers(0, n_topics, size=n)
        nd = np.bincount(z, minlength=n_topics)
        per_draw = max(1, _UNIFORM_BLOCK // n)
        for done in range(0, n_iter, per_draw):
            block = min(per_draw, n_iter - done)
            if lib.infer_doc(
                n, n_topics, block, tokens[a:b], z, nd, phi_t, alpha, rng.random(block * n), cdf
            ):
                raise _unscored(hp, "alpha")
        theta[d] = (nd + alpha) / (n + n_topics * alpha)
    return theta


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------


def _model_parts(model: TopicModel, include_counts: bool) -> dict:
    """The model container, with phi and theta as float64 arrays and the
    count tables as int64 arrays."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_kind": model.model_kind,
        "hyperparams": asdict(model.hyperparams),
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
    if payload["counts"] is not None:
        payload["counts"] = {
            key: [table.tolist() for table in tables]
            for key, tables in payload["counts"].items()
        }
    return payload


def _table(value, shape: tuple[int, int], name: str, counts: bool = False) -> np.ndarray:
    """A finite, non-negative float64 table of exactly `shape`, read from
    JSON rows of numbers; with `counts`, an int64 table instead."""
    try:
        table = np.array(value, dtype=None if counts else np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"model {name} is not a numeric table") from None
    if table.size == 0 and 0 in shape:
        return np.zeros(shape, np.int64 if counts else np.float64)
    if table.shape != shape:
        raise DataError(f"model {name} has shape {table.shape}, expected {shape}")
    # numpy would read a JSON true/false as 1/0, and a string as its number
    if not set(map(type, chain.from_iterable(value))) <= {int, float}:
        raise DataError(f"model {name} must hold only numbers")
    if counts and table.dtype != np.int64:
        raise DataError(f"model {name} must hold integer counts")
    if not np.isfinite(table).all() or (table < 0).any():
        raise DataError(f"model {name} must be finite and non-negative")
    return table


def _validate_counts(counts, doc_ids: tuple, vocabs: tuple, k: int) -> dict:
    """The optional count tables as int64 arrays: per-language `doc_topic`
    (D x K) and `word_topic` (V x K) pairs of non-negative integers."""
    if not isinstance(counts, dict):
        raise DataError("model 'counts' must be an object or null")
    tables = {}
    for key in ("doc_topic", "word_topic"):
        if key not in counts:
            raise DataError(f"model counts are missing {key!r}")
        rows = [len(ids) for ids in doc_ids] if key == "doc_topic" else [v.size for v in vocabs]
        tables[key] = [
            _table(table, (rows[side], k), f"counts[{key!r}][{side}]", counts=True)
            for side, table in enumerate(_pair(counts, key))
        ]
    return tables


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


def _list_of(value, valid) -> bool:
    return isinstance(value, list) and all(map(valid, value))


# each provenance key that `train` writes: what it holds, and a check
_PROVENANCE = {
    "seed": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "train_iterations": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "schedule": ("an object or null", lambda v: v is None or isinstance(v, dict)),
    "anneal_events": ("a list of objects", lambda v: _list_of(v, lambda e: isinstance(e, dict))),
    "lis_history": ("a list of finite numbers", lambda v: _list_of(
        v, lambda x: type(x) is int or type(x) is float and math.isfinite(x)
    )),
    "hardlink_formulation": (
        " or ".join(HARDLINK_FORMULATION.choices), lambda v: v in HARDLINK_FORMULATION.choices
    ),
}


def _provenance(value) -> dict:
    """`value`, an object whose keys that `train` writes hold what it writes."""
    if not isinstance(value, dict):
        raise DataError("model 'provenance' must be an object")
    for key, (wanted, valid) in _PROVENANCE.items():
        if key in value and not valid(value[key]):
            raise DataError(f"model provenance {key!r} must be {wanted}")
    return value


def model_from_json(payload: dict) -> TopicModel:
    """Rebuild a model from its container, rejecting any malformed part
    with `DataError`."""
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
    if payload["model_kind"] not in MODEL.choices:
        raise DataError(f"unknown model_kind {payload['model_kind']!r}")
    hp_payload = payload["hyperparams"]
    if not isinstance(hp_payload, dict):
        raise DataError("model 'hyperparams' must be an object")
    keys = declared(Hyperparams)
    if set(hp_payload) != set(keys):
        unknown, absent = sorted(set(hp_payload) - set(keys)), sorted(set(keys) - set(hp_payload))
        raise DataError(f"model hyperparams: unknown keys {unknown}, missing keys {absent}")
    # a config may give an integer as 5.0; a model file holds what train wrote
    integer_keys = [name for name, key in keys.items() if key.kind == "int"]
    if not all(type(hp_payload[name]) is int for name in integer_keys):
        raise DataError(f"model hyperparams {', '.join(integer_keys)} must be integers")
    try:
        hp = Hyperparams(**hp_payload)
    except ConfigError as exc:
        raise DataError(f"model hyperparams: {exc}") from None
    langs = _pair(payload, "languages")
    if not all(isinstance(lang, str) and lang for lang in langs) or langs[0] == langs[1]:
        raise DataError("model languages must be two different non-empty strings")
    words = _pair(payload, "vocabularies", True)
    if not all(isinstance(word, str) for side in words for word in side):
        raise DataError("model vocabularies must be lists of words")
    vocabs = tuple(Vocabulary(lang, side) for lang, side in zip(langs, words))
    doc_ids = tuple(_pair(payload, "doc_ids", True))
    if not all(isinstance(doc_id, str) and doc_id for ids in doc_ids for doc_id in ids):
        raise DataError("model doc_ids must be lists of non-empty strings")
    doc_labels = tuple(_pair(payload, "doc_labels", True))
    if any(len(labels) != len(ids) for labels, ids in zip(doc_labels, doc_ids)) or not all(
        entry is None or isinstance(entry, list) and all(isinstance(x, str) for x in entry)
        for labels in doc_labels for entry in labels
    ):
        raise DataError("model doc_labels must hold, per document, null or a list of strings")
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
        counts = _validate_counts(counts, doc_ids, vocabs, hp.k)
    return TopicModel(
        model_kind=payload["model_kind"],
        hyperparams=hp,
        vocabularies=vocabs,
        phi=phi,
        theta=theta,
        doc_ids=doc_ids,
        doc_labels=doc_labels,
        provenance=_provenance(payload.get("provenance", {})),
        counts=counts,
    )


def save_model(model: TopicModel, path: str | Path, include_counts: bool = True) -> None:
    """Write the versioned model container. Count tables are needed for
    LIS evaluation and resumable work; drop them for a smaller file."""
    write_json(_model_parts(model, include_counts), path)


def load_model(path: str | Path) -> TopicModel:
    return model_from_json(read_json(path, "model file"))
