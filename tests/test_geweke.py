"""Geweke's successive-conditional tests of the compiled inference kernel,
the soft-link training sweep, the hard-link and vocabulary-link training
iterations and the soft-link prior refresh (Geweke 2004, *Getting it
right*; Grosse & Duvenaud 2014, *Testing MCMC code*).

With phi fixed, one document's joint distribution is theta ~ Dir(alpha),
z_i ~ theta, w_i ~ phi[z_i]. Alternating "draw every word from phi given
z" with one `infer_doc` pass (resample every z_i given the words) leaves
that joint invariant, so the topic counts the chain visits must follow
the forward Dirichlet-multinomial. The parity tests pin the kernel to its
reference loop bit for bit; this test checks that the loop's step is the
right conditional, which bit-parity with a shared mistake would not.
"""

from itertools import product

import numpy as np
from scipy import stats
from scipy.special import comb, gammaln

from multitopic import _native, models
from multitopic.corpus import BilingualCorpus, Corpus, Document, Vocabulary
from multitopic.dictionary import BilingualDictionary
from multitopic.models import Hyperparams, tally_side
from multitopic.transfer import TransferMatrix
from multitopic.tree import build_tree
from oracles import concept_free_sweep

K, V, N = 3, 4, 5  # topics, words, tokens in the one document
ALPHA = 0.7
PHI = np.array([
    [0.6, 0.2, 0.1, 0.1],
    [0.1, 0.5, 0.3, 0.1],
    [0.1, 0.1, 0.3, 0.5],
])
SAMPLES = 2500
THIN = 8  # alternations between kept samples; the lag-1 autocorrelation is about 0.7


def successive_conditional_counts(rng) -> np.ndarray:
    """nd[0] after every THIN-th alternation of a chain started from a
    forward draw."""
    lib = _native.load()
    phi_t = np.ascontiguousarray(PHI.T)
    word_cdf = np.cumsum(PHI, axis=1)
    cdf = np.empty(K)
    z = rng.choice(K, size=N, p=rng.dirichlet(np.full(K, ALPHA)))
    nd = np.bincount(z, minlength=K)
    kept = np.empty(SAMPLES, dtype=np.int64)
    for j in range(SAMPLES):
        for _ in range(THIN):
            words = np.argmax(rng.random(N)[:, None] < word_cdf[z], axis=1)
            lib.infer_doc(N, K, 1, words, z, nd, phi_t, ALPHA, rng.random(N), cdf)
        kept[j] = nd[0]
    return kept


def test_inference_kernel_keeps_the_joint_distribution():
    rng = np.random.default_rng(0)
    chain = successive_conditional_counts(rng)
    forward = rng.multinomial(N, rng.dirichlet(np.full(K, ALPHA), size=SAMPLES))[:, 0]
    # the last bin holds N and above: only a sampler that loses track of
    # its counts goes past N
    table = np.array([np.bincount(np.minimum(x, N), minlength=N + 1) for x in (chain, forward)])
    assert stats.chi2_contingency(table).pvalue > 0.01, table


# The soft-link training sweep with its priors held fixed: two documents of
# four tokens, K = 2, V = 4. Document 0's prior is alpha plus the transfer
# mixture of three source documents' topic counts; document 1 has an empty
# transfer row, so its prior is alpha alone.
SOFT_K, SOFT_V, SOFT_N, SOFT_DOCS = 2, 4, 4, 2
SOFT_ALPHA, SOFT_BETA = 0.4, 0.5
SOFT_PRIORS = TransferMatrix(
    "l1", "l2", np.array([0, 2, 2]), np.array([0, 1]), np.array([0.75, 0.25])
).mix(np.array([[3, 0], [1, 2], [0, 4]])) + SOFT_ALPHA
SOFT_DOC_OF = np.repeat(np.arange(SOFT_DOCS), SOFT_N)
SOFT_THIN = 4


def assert_statistics_agree(chain, forward) -> None:
    """Each column of statistics, chain against forward draws, passes a
    chi-squared test of one distribution at the 1% level."""
    for column in range(chain.shape[1]):
        values = np.unique(np.concatenate([chain[:, column], forward[:, column]]))
        table = np.array([[np.sum(x[:, column] == v) for v in values] for x in (chain, forward)])
        assert stats.chi2_contingency(table).pvalue > 0.01, (column, table)


def draw_words(z, rng) -> np.ndarray:
    """Every word given the topics, phi integrated out: a fresh phi ~
    Dir(beta) per topic, then each word from its topic's row."""
    phi = rng.dirichlet(np.full(SOFT_V, SOFT_BETA), size=SOFT_K)
    return np.argmax(rng.random(len(z))[:, None] < np.cumsum(phi, axis=1)[z], axis=1)


def tally(index, z, n_rows, k=SOFT_K) -> np.ndarray:
    table = np.zeros((n_rows, k), dtype=np.int64)
    np.add.at(table, (index, z), 1)
    return table


def soft_statistics(nd, nw) -> tuple[int, int, int]:
    """Topic-0 counts of both documents, N and above in one bin, and the
    sum of squared word-topic counts."""
    return min(nd[0, 0], SOFT_N), min(nd[1, 0], SOFT_N), int((nw**2).sum())


def forward_soft(rng) -> tuple[np.ndarray, np.ndarray]:
    theta = np.array([rng.dirichlet(prior) for prior in SOFT_PRIORS])
    u = rng.random(len(SOFT_DOC_OF))[:, None]
    z = np.argmax(u < np.cumsum(theta, axis=1)[SOFT_DOC_OF], axis=1)
    return z, draw_words(z, rng)


def successive_conditional_soft(rng) -> np.ndarray:
    """The statistics after every SOFT_THIN-th alternation of "draw every
    word given z" with one pass of the training sweep over a tree without
    concepts, as soft links run it. The sweep keeps its own document
    counts, which the word draws leave valid; only the word-topic table is
    tallied again for the new words."""
    lib = _native.load()
    z, _ = forward_soft(rng)
    nd = tally(SOFT_DOC_OF, z, SOFT_DOCS)
    doc_start = np.array([0, SOFT_N, 2 * SOFT_N])
    cdf = np.empty(SOFT_K)
    kept = []
    for _ in range(SAMPLES):
        for _ in range(SOFT_THIN):
            words = draw_words(z, rng)
            nw = tally(words, z, SOFT_V)
            concept_free_sweep(
                lib, doc_start, words, z, nd, SOFT_PRIORS, nw, SOFT_BETA,
                rng.random(len(z)), cdf,
            )
        kept.append(soft_statistics(nd, nw))
    return np.array(kept)


def test_softlink_sweep_with_fixed_priors_keeps_the_joint_distribution():
    rng = np.random.default_rng(0)
    chain = successive_conditional_soft(rng)
    forward = np.array([
        soft_statistics(tally(SOFT_DOC_OF, z, SOFT_DOCS), tally(w, z, SOFT_V))
        for z, w in (forward_soft(rng) for _ in range(SAMPLES))
    ])
    assert_statistics_agree(chain, forward)


# Hard links through the iteration `train` runs (`models._iteration`):
# side-1 document 0 and side-2 document 1 share one theta; side-1
# document 1 and side-2 document 0 are unlinked. K = 2, V = 3 per
# language, HARD_N tokens per document.
HARD_K, HARD_V, HARD_N, HARD_DOCS = 2, 3, 3, 2
HARD_ALPHA, HARD_BETA = 0.4, 0.5
HARD_LINKS = np.array([[0, 1]], dtype=np.int64)
HARD_DOC_OF = np.repeat(np.arange(HARD_DOCS), HARD_N)
HARD_THIN = 4


def forward_hard_topics(rng) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' topics, document by document: the linked pair draws from
    one shared theta, each unlinked document from its own."""
    shared = rng.dirichlet(np.full(HARD_K, HARD_ALPHA))
    thetas = [
        [shared, rng.dirichlet(np.full(HARD_K, HARD_ALPHA))],
        [rng.dirichlet(np.full(HARD_K, HARD_ALPHA)), shared],
    ]
    return tuple(
        np.concatenate([rng.choice(HARD_K, size=HARD_N, p=theta) for theta in side])
        for side in thetas
    )


def draw_hard_words(z, rng) -> np.ndarray:
    """One side's words given its topics, phi ~ Dir(beta) integrated out."""
    phi = rng.dirichlet(np.full(HARD_V, HARD_BETA), size=HARD_K)
    return np.argmax(rng.random(len(z))[:, None] < np.cumsum(phi, axis=1)[z], axis=1)


def hard_statistics(nd1, nd2, nw1, nw2) -> tuple[int, ...]:
    """Topic-0 counts of the linked documents, of the pair together and of
    an unlinked document, each past its largest possible value in one
    bin, and the sum of squared word-topic counts."""
    pair = (int(nd1[0, 0]), int(nd2[1, 0]))
    return (
        *(min(x, HARD_N + 1) for x in pair),
        min(sum(pair), 2 * HARD_N + 1),
        min(nd1[1, 0], HARD_N + 1),
        int((nw1**2).sum() + (nw2**2).sum()),
    )


def successive_conditional_hard(rng) -> np.ndarray:
    """The statistics after every HARD_THIN-th alternation of "draw every
    word given z" with one training iteration over a tree without
    concepts, as hard links run it: each side's linked rows mix their
    partners' live counts into their prior through the weight-1 tables of
    `models._hard_links`. The sweep keeps its own document counts and, in
    the tree, topic totals, which the word draws leave valid; only the
    word-topic tables are tallied again."""
    lib = _native.load()
    hp = Hyperparams(k=HARD_K, alpha=HARD_ALPHA, beta=HARD_BETA)
    vocabularies = [Vocabulary(lang, [f"{lang}{i}" for i in range(HARD_V)]) for lang in ("l1", "l2")]
    tree = build_tree(BilingualDictionary("l1", "l2", []), *vocabularies, HARD_K)
    sides, paths = [], []
    for s, z in enumerate(forward_hard_topics(rng)):
        words = draw_hard_words(z, rng)
        sides.append(tally_side(words, z, np.arange(HARD_DOCS + 1) * HARD_N, HARD_K, HARD_V))
        paths.append(np.full(len(z), -1, dtype=np.int64))
        tree.add_paths(s, sides[-1].z, paths[-1])
    corpus = BilingualCorpus(*(
        Corpus(v.language, v, [Document(f"d{d}", v.language, [0] * HARD_N) for d in range(HARD_DOCS)])
        for v in vocabularies
    ))
    tables = models._hard_links(corpus, HARD_LINKS)
    kept = []
    for _ in range(SAMPLES):
        for _ in range(HARD_THIN):
            for side in sides:
                side.tokens[:] = draw_hard_words(side.z, rng)
                side.word_topic[:] = tally(side.tokens, side.z, HARD_V, HARD_K)
            models._iteration(lib, sides, paths, tables, False, tree, hp, rng)
        kept.append(hard_statistics(
            sides[0].doc_topic, sides[1].doc_topic, sides[0].word_topic, sides[1].word_topic
        ))
    return np.array(kept)


def test_hardlink_iteration_keeps_the_joint_distribution():
    rng = np.random.default_rng(0)
    chain = successive_conditional_hard(rng)
    forward = []
    for _ in range(SAMPLES):
        z1, z2 = forward_hard_topics(rng)
        w1, w2 = draw_hard_words(z1, rng), draw_hard_words(z2, rng)
        forward.append(hard_statistics(
            tally(HARD_DOC_OF, z1, HARD_DOCS, HARD_K), tally(HARD_DOC_OF, z2, HARD_DOCS, HARD_K),
            tally(w1, z1, HARD_V, HARD_K), tally(w2, z2, HARD_V, HARD_K),
        ))
    forward = np.array(forward)
    assert_statistics_agree(chain, forward)


# Vocabulary links through the iteration `voclink` trains with
# (`models._iteration` over the dictionary's tree, empty transfer tables):
# one document per language of TREE_N tokens, K = 2, and the concepts
# (a0, b0), (a0, b1) and (a1, b1), so a0 and b1 each sit on two leaves and
# the sweep moves their paths. Every word is translated, so the tree is
# the Dirichlet tree over both languages' leaves: per topic, a root
# distribution pi over the concepts and a leaf distribution psi over each
# concept's two leaves. (An untranslated word would make each language
# normalize the root over its own children, which no one tree does.) A
# token draws its concept from pi and its language from psi; its word is
# that concept's word in that language. The sweep samples a token's topic
# and path given its word and language, the conditional of this model
# given every token's language.
TREE_K, TREE_N, TREE_DOCS = 2, 3, 1
TREE_ALPHA, TREE_BETA_ROOT, TREE_BETA_INTERNAL = 0.7, 0.6, 0.5
TREE_WORDS = np.array([[0, 0], [0, 1], [1, 1]])  # concept c's word on side s
TREE_C = len(TREE_WORDS)
TREE_THIN = 4


def tree_statistics(nd1, nd2, concept, leaf) -> tuple[int, ...]:
    """Topic-0 counts of both documents and the tokens on the shared
    concept (a0, b1), each past its largest possible value in one bin, and
    the sums of squared concept-topic and leaf-topic counts."""
    return (
        min(nd1[0, 0], TREE_N + 1),
        min(nd2[0, 0], TREE_N + 1),
        min(concept[1].sum(), 2 * TREE_N + 1),
        int((concept**2).sum()),
        int((leaf**2).sum()),
    )


def tally_tree(z, paths) -> tuple[np.ndarray, np.ndarray]:
    """The pooled C x K concept-topic table and the 2 x C x K leaf-topic
    tables of both sides' topics and paths."""
    leaf = np.array([tally(c, t, TREE_C, TREE_K) for t, c in zip(z, paths)])
    return leaf.sum(axis=0), leaf


def forward_tree(rng, n) -> list[tuple[np.ndarray, np.ndarray]]:
    """`n` draws of both documents' (2 x TREE_N) topics and paths from the
    tree's generative process, given that every token's language is its
    document's: batches of draws, keeping those in which it is."""
    kept = []
    while len(kept) < n:
        b = 4096
        pi = rng.dirichlet(np.full(TREE_C, TREE_BETA_ROOT), size=(b, TREE_K))
        psi = rng.dirichlet(np.full(2, TREE_BETA_INTERNAL), size=(b, TREE_K, TREE_C))
        theta = rng.dirichlet(np.full(TREE_K, TREE_ALPHA), size=(b, 2))
        u = rng.random((b, 2, TREE_N, 1))
        z = np.argmax(u < np.cumsum(theta, axis=-1)[:, :, None, :], axis=-1)
        draw = np.arange(b)[:, None, None]
        paths = np.argmax(rng.random((b, 2, TREE_N, 1)) < np.cumsum(pi[draw, z], axis=-1), axis=-1)
        language = psi[draw, z, paths, np.arange(2)[None, :, None]]
        accepted = (rng.random((b, 2, TREE_N)) < language).all(axis=(1, 2))
        kept.extend(zip(z[accepted], paths[accepted]))
    return kept[:n]


def draw_tree_paths(z, paths, rng) -> list[np.ndarray]:
    """Every token's path again given all topics and languages: pi and psi
    from their conditionals given the tallied paths, then each token's
    concept given its topic and language."""
    concept, leaf = tally_tree(z, paths)
    pi = np.array([rng.dirichlet(TREE_BETA_ROOT + concept[:, t]) for t in range(TREE_K)])
    psi = np.array([
        [rng.dirichlet(TREE_BETA_INTERNAL + leaf[:, c, t]) for c in range(TREE_C)]
        for t in range(TREE_K)
    ])
    cdfs = [np.cumsum(pi[topics] * psi[topics, :, s], axis=1) for s, topics in enumerate(z)]
    return [np.argmax(rng.random(len(cdf))[:, None] * cdf[:, -1:] < cdf, axis=1) for cdf in cdfs]


def successive_conditional_tree(rng) -> np.ndarray:
    """The statistics after every TREE_THIN-th alternation of "draw every
    path, and so every word, given the topics" with one training
    iteration. The sweep keeps its own document counts, which the path
    draws leave valid; the word-topic tables and the tree's counts are
    tallied again for the new paths."""
    lib = _native.load()
    hp = Hyperparams(
        k=TREE_K, alpha=TREE_ALPHA, beta_root=TREE_BETA_ROOT, beta_internal=TREE_BETA_INTERNAL
    )
    vocabularies = [Vocabulary(lang, [f"{lang}{i}" for i in range(2)]) for lang in ("l1", "l2")]
    tree = build_tree(BilingualDictionary("l1", "l2", TREE_WORDS.tolist()), *vocabularies, TREE_K)
    z, paths = forward_tree(rng, 1)[0]
    paths = [np.ascontiguousarray(side) for side in paths]
    sides = [
        tally_side(TREE_WORDS[paths[s], s], z[s], np.array([0, TREE_N]), TREE_K, 2) for s in (0, 1)
    ]
    corpus = BilingualCorpus(*(
        Corpus(v.language, v, [Document("d0", v.language, [0] * TREE_N)]) for v in vocabularies
    ))
    tables = models._hard_links(corpus, [])
    kept = []
    for _ in range(SAMPLES):
        for _ in range(TREE_THIN):
            new_paths = draw_tree_paths([side.z for side in sides], paths, rng)
            tree.zero_counts()
            for s, side in enumerate(sides):
                paths[s][:] = new_paths[s]
                side.tokens[:] = TREE_WORDS[paths[s], s]
                side.word_topic[:] = tally(side.tokens, side.z, 2, TREE_K)
                tree.add_paths(s, side.z, paths[s])
            models._iteration(lib, sides, paths, tables, False, tree, hp, rng)
        kept.append(tree_statistics(
            sides[0].doc_topic, sides[1].doc_topic, tree.concept_topic, tree.leaf_topic
        ))
    return np.array(kept)


def test_voclink_iteration_keeps_the_joint_distribution():
    rng = np.random.default_rng(0)
    chain = successive_conditional_tree(rng)
    forward = []
    for z, paths in forward_tree(rng, SAMPLES):
        concept, leaf = tally_tree(z, paths)
        nd = [tally(np.zeros(TREE_N, dtype=np.int64), side, TREE_DOCS, TREE_K) for side in z]
        forward.append(tree_statistics(*nd, concept, leaf))
    forward = np.array(forward)
    assert_statistics_agree(chain, forward)


# The soft-link prior refresh inside the iteration soft links train with
# (`models._iteration` over a tree without concepts): side 1 draws its
# priors afresh from side 2's counts before every sweep. The transfer runs
# one way, so the joint is a proper model: two side-2 documents with
# theta ~ Dir(alpha), then two side-1 documents whose theta ~ Dir(alpha +
# REFRESH_MIX @ side 2's topic counts): document 0 mixes side-2
# documents 0 and 1 at 0.75 and 0.25, document 1 has an empty row. The
# iteration reads REFRESH_MIX as the sparse REFRESH_TABLES[0]. K = 2,
# V = 3 per language, REFRESH_N tokens per document.
REFRESH_K, REFRESH_V, REFRESH_N, REFRESH_DOCS = 2, 3, 3, 2
REFRESH_ALPHA, REFRESH_BETA = 0.4, 0.5
REFRESH_MIX = np.array([[0.75, 0.25], [0.0, 0.0]])
REFRESH_TABLES = [
    TransferMatrix("l1", "l2", np.array([0, 2, 2]), np.array([0, 1]), np.array([0.75, 0.25])),
    TransferMatrix("l2", "l1", np.zeros(3, dtype=np.int64), np.zeros(0, np.int64), np.zeros(0)),
]
REFRESH_DOC_OF = np.repeat(np.arange(REFRESH_DOCS), REFRESH_N)
REFRESH_THIN = 4
# every side-2 document's topic-0 count, in all (REFRESH_N + 1)**2 ways
REFRESH_N2 = np.array(list(product(range(REFRESH_N + 1), repeat=REFRESH_DOCS)))


def refresh_statistics(nd1, nd2, nw1) -> tuple[int, ...]:
    """Topic-0 counts of both side-1 documents, of side-2 document 0 and
    of it with side-1 document 0, which mixes it, each past its largest
    possible value in one bin, and the sum of squared side-1 word-topic
    counts."""
    return (
        min(nd1[0, 0], REFRESH_N + 1),
        min(nd1[1, 0], REFRESH_N + 1),
        int(nd2[0, 0]),
        min(nd1[0, 0] + nd2[0, 0], 2 * REFRESH_N + 1),
        int((nw1**2).sum()),
    )


def draw_refresh_words(z, rng) -> np.ndarray:
    """One side's words given its topics, phi ~ Dir(beta) integrated out."""
    phi = rng.dirichlet(np.full(REFRESH_V, REFRESH_BETA), size=REFRESH_K)
    return np.argmax(rng.random(len(z))[:, None] < np.cumsum(phi, axis=1)[z], axis=1)


def log_dirichlet_multinomial(prior, counts) -> np.ndarray:
    """Log probability of one token sequence with these topic counts under
    a Dir(prior) theta, summed over the documents (the last two axes)."""
    return (
        gammaln(prior.sum(-1)) - gammaln(prior.sum(-1) + counts.sum(-1))
        + (gammaln(prior + counts) - gammaln(prior)).sum(-1)
    ).sum(-1)


def side2_topics_given_side1(nd1, rng) -> np.ndarray:
    """Side 2's topics given side 1's counts: a side-2 count table by
    enumeration (its sequences' probability times their number times
    side 1's probability under the priors it gives), then the order of
    each document's topics uniformly."""
    nd2 = np.stack([REFRESH_N2, REFRESH_N - REFRESH_N2], axis=-1)
    alpha = np.full(REFRESH_K, REFRESH_ALPHA)
    priors1 = REFRESH_MIX @ nd2 + REFRESH_ALPHA
    logp = (
        log_dirichlet_multinomial(alpha, nd2) + np.log(comb(REFRESH_N, REFRESH_N2)).sum(-1)
        + log_dirichlet_multinomial(priors1, nd1[None])
    )
    p = np.exp(logp - logp.max())
    n2 = nd2[rng.choice(len(p), p=p / p.sum())]
    return np.concatenate([rng.permutation(np.repeat(np.arange(REFRESH_K), row)) for row in n2])


def forward_refresh(rng, n) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`n` draws of (side-1 document-topic, side-2 document-topic, side-1
    word-topic) tables from the one-way model."""
    draws = []
    for _ in range(n):
        z2 = np.concatenate([
            rng.choice(REFRESH_K, size=REFRESH_N, p=rng.dirichlet(np.full(REFRESH_K, REFRESH_ALPHA)))
            for _ in range(REFRESH_DOCS)
        ])
        nd2 = tally(REFRESH_DOC_OF, z2, REFRESH_DOCS, REFRESH_K)
        priors = REFRESH_MIX @ nd2 + REFRESH_ALPHA
        z1 = np.concatenate([rng.choice(REFRESH_K, size=REFRESH_N, p=rng.dirichlet(p)) for p in priors])
        w1 = draw_refresh_words(z1, rng)
        draws.append((
            tally(REFRESH_DOC_OF, z1, REFRESH_DOCS, REFRESH_K), nd2,
            tally(w1, z1, REFRESH_V, REFRESH_K),
        ))
    return draws


def successive_conditional_refresh(rng) -> np.ndarray:
    """The statistics after every REFRESH_THIN-th alternation of "draw
    side 2's topics given side 1's, then every word given the topics"
    with one training iteration, which sweeps side 1 under priors mixed
    from those side-2 counts. The iteration then sweeps side 2 too, under
    alpha alone; the next draw of side 2 given side 1 replaces what that
    sweep did, so the statistics read side 2 as side 1's sweep saw it."""
    lib = _native.load()
    hp = Hyperparams(k=REFRESH_K, alpha=REFRESH_ALPHA, beta=REFRESH_BETA)
    vocabularies = [Vocabulary(lang, [f"{lang}{i}" for i in range(REFRESH_V)]) for lang in ("l1", "l2")]
    tree = build_tree(BilingualDictionary("l1", "l2", []), *vocabularies, REFRESH_K)
    doc_start = np.arange(REFRESH_DOCS + 1) * REFRESH_N
    nd1 = forward_refresh(rng, 1)[0][0]
    z1 = np.concatenate([np.repeat(np.arange(REFRESH_K), row) for row in nd1])
    sides = [
        tally_side(np.zeros(len(z), dtype=np.int64), z, doc_start, REFRESH_K, REFRESH_V)
        for z in (z1, np.zeros_like(z1))
    ]
    paths = [np.full(len(z1), -1, dtype=np.int64) for _ in sides]
    side1, side2 = sides
    kept = []
    for _ in range(SAMPLES):
        for _ in range(REFRESH_THIN):
            side2.z[:] = side2_topics_given_side1(side1.doc_topic, rng)
            side2.doc_topic[:] = tally(REFRESH_DOC_OF, side2.z, REFRESH_DOCS, REFRESH_K)
            nd2 = side2.doc_topic.copy()
            tree.zero_counts()
            for s, side in enumerate(sides):
                side.tokens[:] = draw_refresh_words(side.z, rng)
                side.word_topic[:] = tally(side.tokens, side.z, REFRESH_V, REFRESH_K)
                tree.add_paths(s, side.z, paths[s])
            models._iteration(lib, sides, paths, REFRESH_TABLES, True, tree, hp, rng)
        kept.append(refresh_statistics(sides[0].doc_topic, nd2, sides[0].word_topic))
    return np.array(kept)


def test_softlink_prior_refresh_keeps_the_joint_distribution():
    rng = np.random.default_rng(0)
    chain = successive_conditional_refresh(rng)
    forward = np.array([refresh_statistics(*draw) for draw in forward_refresh(rng, SAMPLES)])
    assert_statistics_agree(chain, forward)
