"""Geweke's successive-conditional tests of the compiled inference kernel,
the soft-link training sweep and the hard-link training iteration (Geweke
2004, *Getting it right*; Grosse & Duvenaud 2014, *Testing MCMC code*).

With phi fixed, one document's joint distribution is theta ~ Dir(alpha),
z_i ~ theta, w_i ~ phi[z_i]. Alternating "draw every word from phi given
z" with one `infer_doc` pass (resample every z_i given the words) leaves
that joint invariant, so the topic counts the chain visits must follow
the forward Dirichlet-multinomial. The parity tests pin the kernel to its
reference loop bit for bit; this test checks that the loop's step is the
right conditional, which bit-parity with a shared mistake would not.
"""

import numpy as np
from scipy import stats

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
    for column in range(chain.shape[1]):
        values = np.unique(np.concatenate([chain[:, column], forward[:, column]]))
        table = np.array([[np.sum(x[:, column] == v) for v in values] for x in (chain, forward)])
        assert stats.chi2_contingency(table).pvalue > 0.01, (column, table)


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
    for column in range(chain.shape[1]):
        values = np.unique(np.concatenate([chain[:, column], forward[:, column]]))
        table = np.array([[np.sum(x[:, column] == v) for v in values] for x in (chain, forward)])
        assert stats.chi2_contingency(table).pvalue > 0.01, (column, table)
