"""Independent oracles for checking sampler conditionals.

Everything here recomputes collapsed likelihoods from first principles
(log-gamma identities over exhaustively tallied counts) without touching
the package's sampling formulas, so agreement is meaningful evidence.
"""

import io
import itertools
import json
import math
from collections import Counter
from math import exp, lgamma

import numpy as np

from multitopic.corpus import Vocabulary
from multitopic.dictionary import BilingualDictionary
from multitopic.models import SideState, _model_parts, _tree_sweep, tally_side, token_conditional
from multitopic.transfer import TransferMatrix
from multitopic.tree import DirichletTree


def loglik_theta(z_docs, alpha_priors):
    """Collapsed document-topic factor: one Dirichlet-multinomial per
    document with a per-document prior vector."""
    ll = 0.0
    for zd, prior in zip(z_docs, alpha_priors):
        k = len(prior)
        counts = [0] * k
        for t in zd:
            counts[t] += 1
        total_prior = sum(prior)
        ll += lgamma(total_prior) - lgamma(total_prior + len(zd))
        for i in range(k):
            ll += lgamma(counts[i] + prior[i]) - lgamma(prior[i])
    return ll


def loglik_words(tokens_docs, z_docs, n_topics, vocab_size, beta):
    """Collapsed topic-word factor for one language."""
    nwk = [[0] * n_topics for _ in range(vocab_size)]
    nk = [0] * n_topics
    for toks, zd in zip(tokens_docs, z_docs):
        for w, t in zip(toks, zd):
            nwk[w][t] += 1
            nk[t] += 1
    ll = 0.0
    for k in range(n_topics):
        for w in range(vocab_size):
            ll += lgamma(nwk[w][k] + beta) - lgamma(beta)
        ll -= lgamma(nk[k] + vocab_size * beta) - lgamma(vocab_size * beta)
    return ll


def loglik_tree_words(
    tokens_docs, z_docs, path_docs, n_topics, vocab_size,
    memberships, fixed_concept, beta, beta_root, beta_internal,
):
    """Collapsed tree factor for one language, holding the other language's
    concept traffic fixed as prior pseudo-counts (`fixed_concept`, C x K)."""
    n_concepts = len(fixed_concept)
    untranslated = [w for w in range(vocab_size) if not memberships[w]]
    own_concept = [[0] * n_topics for _ in range(n_concepts)]
    own_word = [[0] * n_topics for _ in range(vocab_size)]
    m = [0] * n_topics
    for toks, zd, pd in zip(tokens_docs, z_docs, path_docs):
        for w, t, c in zip(toks, zd, pd):
            m[t] += 1
            if c >= 0:
                own_concept[c][t] += 1
            else:
                own_word[w][t] += 1
    ll = 0.0
    for k in range(n_topics):
        root_prior = (
            n_concepts * beta_root
            + sum(fixed_concept[c][k] for c in range(n_concepts))
            + len(untranslated) * beta
        )
        ll += lgamma(root_prior) - lgamma(root_prior + m[k])
        for c in range(n_concepts):
            ll += lgamma(beta_root + fixed_concept[c][k] + own_concept[c][k])
            ll -= lgamma(beta_root + fixed_concept[c][k])
            # concept-node child distribution spans both leaves; the other
            # language's leaf count is fixed
            ll += lgamma(beta_internal + own_concept[c][k]) - lgamma(beta_internal)
            ll += lgamma(2 * beta_internal + fixed_concept[c][k])
            ll -= lgamma(2 * beta_internal + fixed_concept[c][k] + own_concept[c][k])
        for w in untranslated:
            ll += lgamma(beta + own_word[w][k]) - lgamma(beta)
    return ll


def normalized(logliks):
    m = max(logliks)
    ps = [exp(v - m) for v in logliks]
    total = sum(ps)
    return [p / total for p in ps]


def conditional_from_loglik(loglik_of_topic, n_topics):
    return normalized([loglik_of_topic(k) for k in range(n_topics)])


def all_assignments(lengths, n_topics):
    """Every joint topic assignment for documents with the given lengths."""
    total = sum(lengths)
    for flat in itertools.product(range(n_topics), repeat=total):
        docs = []
        pos = 0
        for n in lengths:
            docs.append(list(flat[pos: pos + n]))
            pos += n
        yield docs


def tally_docs(tokens_docs, z_docs, n_topics, vocab_size) -> SideState:
    """`tally_side` over per-document lists of word ids and topics."""
    doc_start = np.cumsum([0] + [len(toks) for toks in tokens_docs])
    tokens, z = (
        np.array([x for doc in docs for x in doc], dtype=np.int64) for docs in (tokens_docs, z_docs)
    )
    return tally_side(tokens, z, doc_start, n_topics, vocab_size)


def side_state_without_token(tokens_docs, z_docs, n_topics, vocab_size, doc, pos):
    """Tally a SideState from all assignments except the given token."""
    state = tally_docs(tokens_docs, z_docs, n_topics, vocab_size)
    w = tokens_docs[doc][pos]
    t = z_docs[doc][pos]
    state.doc_topic[doc][t] -= 1
    state.word_topic[w][t] -= 1
    return state


def tree_counts_without_token(
    tree: DirichletTree, side: int, tokens_docs, z_docs, path_docs,
    fixed_concept, fixed_other_untrans=None, skip=None,
):
    """Fill a DirichletTree's counts from one side's assignments (minus an
    optional token) plus the other side's fixed concept traffic."""
    tree.zero_counts()
    other = 1 - side
    for c in range(tree.n_concepts):
        for k in range(tree.n_topics):
            tree.leaf_topic[other][c][k] = fixed_concept[c][k]
            tree.concept_topic[c][k] += fixed_concept[c][k]
            tree.concept_total[k] += fixed_concept[c][k]
    if fixed_other_untrans is not None:
        tree.untrans_total[other][:] = fixed_other_untrans
    for d, (toks, zd, pd) in enumerate(zip(tokens_docs, z_docs, path_docs)):
        for i, (w, t, c) in enumerate(zip(toks, zd, pd)):
            if skip is not None and (d, i) == skip:
                continue
            add_path(tree, side, c, t)
    return tree


def add_path(tree: DirichletTree, side: int, concept: int, topic: int) -> None:
    """Count one token of `topic` along its path, one count at a time:
    `concept` is -1 for a word's own root leaf."""
    if concept >= 0:
        tree.concept_topic[concept, topic] += 1
        tree.leaf_topic[side, concept, topic] += 1
        tree.concept_total[topic] += 1
    else:
        tree.untrans_total[side, topic] += 1


def concepts_of_word(tree: DirichletTree, side: int) -> list[list[int]]:
    """Each word's concepts on `side` as lists, read from the tree's CSR."""
    starts, members = tree.member_start[side].tolist(), tree.member_concepts[side]
    return [members[a:b].tolist() for a, b in zip(starts, starts[1:])]


def memberships_reference(dictionary, side: int, vocab_size: int) -> list[list[int]]:
    """Each word's concepts on `side`, in dictionary order, built from the
    `Concept` records alone."""
    memberships = [[] for _ in range(vocab_size)]
    for c in dictionary.concepts:
        memberships[c.word2 if side else c.word1].append(c.concept_id)
    return memberships


def init_side_reference(tokens_docs, k, rng, memberships):
    """Initial topics and tree paths, one token at a time: each document's
    topics in one draw, then each of its tokens' paths in order; a word in
    several concepts draws one of them, a word in one takes it, and a word
    in none gets -1."""
    z, paths = [], []
    for toks in tokens_docs:
        z.append(rng.integers(0, k, size=len(toks)).tolist())
        for w in toks:
            ms = memberships[w]
            if not ms:
                paths.append(-1)
            else:
                paths.append(ms[0] if len(ms) == 1 else ms[int(rng.integers(0, len(ms)))])
    return z, paths


# ---------------------------------------------------------------------------
# exhaustive per-sampler checkers: enumerate every assignment of a tiny
# instance and compare each conditional against the likelihood ratio
# ---------------------------------------------------------------------------


def _paths_for(tokens_docs, memberships, choices):
    """Expand flat path choices into per-document path lists."""
    docs = []
    i = 0
    for toks in tokens_docs:
        row = []
        for w in toks:
            ms = memberships[w]
            row.append(ms[choices[i]] if ms else -1)
            i += 1
        docs.append(row)
    return docs


def check_plain_sampler(tokens_docs, n_topics, vocab_size, hp, pseudo=None):
    """Max |sampler - oracle| over all assignments and token positions for
    the LDA / soft-link family (pseudo=None means plain LDA)."""
    if pseudo is None:
        priors = [[hp.alpha] * n_topics for _ in tokens_docs]
    else:
        priors = [[hp.alpha + p for p in row] for row in pseudo]
    lengths = [len(t) for t in tokens_docs]
    worst = 0.0
    for z in all_assignments(lengths, n_topics):
        for d, toks in enumerate(tokens_docs):
            for i in range(len(toks)):
                def ll(k):
                    z_try = [list(zd) for zd in z]
                    z_try[d][i] = k
                    return loglik_theta(z_try, priors) + loglik_words(
                        tokens_docs, z_try, n_topics, vocab_size, hp.beta
                    )

                expected = conditional_from_loglik(ll, n_topics)
                state = side_state_without_token(
                    tokens_docs, z, n_topics, vocab_size, d, i
                )
                row = None if pseudo is None else np.array(pseudo[d], dtype=np.float64)
                got = token_conditional(state, d, i, hp, pseudo=row)
                worst = max(worst, float(np.abs(got - np.array(expected)).max()))
    return worst


def check_hardlink_conditional(tokens_docs, partner_counts, n_topics, vocab_size, hp):
    """Conditional formulation: the partner's topic tallies are a fixed
    prior; enumeration covers this side only."""
    priors = [
        [hp.alpha + partner_counts[d][k] for k in range(n_topics)]
        for d in range(len(tokens_docs))
    ]
    lengths = [len(t) for t in tokens_docs]
    worst = 0.0
    for z in all_assignments(lengths, n_topics):
        for d, toks in enumerate(tokens_docs):
            for i in range(len(toks)):
                def ll(k):
                    z_try = [list(zd) for zd in z]
                    z_try[d][i] = k
                    return loglik_theta(z_try, priors) + loglik_words(
                        tokens_docs, z_try, n_topics, vocab_size, hp.beta
                    )

                expected = conditional_from_loglik(ll, n_topics)
                state = side_state_without_token(
                    tokens_docs, z, n_topics, vocab_size, d, i
                )
                got = token_conditional(
                    state, d, i, hp, pseudo=np.array(partner_counts[d], dtype=np.int64)
                )
                worst = max(worst, float(np.abs(got - np.array(expected)).max()))
    return worst


def check_hardlink_joint(tokens1, tokens2, n_topics, v1, v2, hp):
    """Joint formulation: one linked pair shares a topic distribution, so
    the oracle enumerates both sides together with a pooled theta factor."""
    worst = 0.0
    for z1 in all_assignments([len(tokens1)], n_topics):
        for z2 in all_assignments([len(tokens2)], n_topics):
            def ll_joint(z1_try, z2_try):
                pooled = [z1_try[0] + z2_try[0]]
                return (
                    loglik_theta(pooled, [[hp.alpha] * n_topics])
                    + loglik_words([tokens1], z1_try, n_topics, v1, hp.beta)
                    + loglik_words([tokens2], z2_try, n_topics, v2, hp.beta)
                )

            for side, (toks, z_own, z_other, v_own) in enumerate(
                ((tokens1, z1, z2, v1), (tokens2, z2, z1, v2))
            ):
                for i in range(len(toks)):
                    def ll(k):
                        z_try = [list(z_own[0])]
                        z_try[0][i] = k
                        if side == 0:
                            return ll_joint(z_try, z_other)
                        return ll_joint(z_other, z_try)

                    expected = conditional_from_loglik(ll, n_topics)
                    state = side_state_without_token(
                        [toks], z_own, n_topics, v_own, 0, i
                    )
                    partner = np.zeros(n_topics, dtype=np.int64)
                    for t in z_other[0]:
                        partner[t] += 1
                    got = token_conditional(state, 0, i, hp, pseudo=partner)
                    worst = max(worst, float(np.abs(got - np.array(expected)).max()))
    return worst


def check_voclink(
    tokens_docs, n_topics, vocab_size, hp, dictionary, side, fixed_concept,
    pseudo=None,
):
    """Vocabulary-links sampler against the per-side collapsed likelihood
    with the other side's concept traffic held fixed. Enumerates topics and
    leaf choices jointly; compares the topic marginal."""
    from multitopic.corpus import Vocabulary
    from multitopic.tree import build_tree

    v_a = Vocabulary("l1", [f"a{i}" for i in range(vocab_size)])
    v_b = Vocabulary("l2", [f"b{i}" for i in range(vocab_size)])
    tree = build_tree(dictionary, v_a, v_b, n_topics)
    memberships = concepts_of_word(tree, side)
    if pseudo is None:
        priors = [[hp.alpha] * n_topics for _ in tokens_docs]
    else:
        priors = [[hp.alpha + p for p in row] for row in pseudo]

    lengths = [len(t) for t in tokens_docs]
    flat_words = [w for toks in tokens_docs for w in toks]
    n_choices = [max(1, len(memberships[w])) for w in flat_words]
    worst = 0.0
    for z in all_assignments(lengths, n_topics):
        for choices in itertools.product(*(range(c) for c in n_choices)):
            paths = _paths_for(tokens_docs, memberships, list(choices))
            flat_pos = 0
            for d, toks in enumerate(tokens_docs):
                for i, w in enumerate(toks):
                    def ll(k, leaf_choice):
                        z_try = [list(zd) for zd in z]
                        z_try[d][i] = k
                        ch = list(choices)
                        ch[flat_pos] = leaf_choice
                        p_try = _paths_for(tokens_docs, memberships, ch)
                        return loglik_theta(z_try, priors) + loglik_tree_words(
                            tokens_docs, z_try, p_try, n_topics, vocab_size,
                            memberships, fixed_concept,
                            hp.beta, hp.beta_root, hp.beta_internal,
                        )

                    options = max(1, len(memberships[w]))
                    lls = [
                        ll(k, c) for k in range(n_topics) for c in range(options)
                    ]
                    joint = normalized(lls)
                    expected = [
                        sum(joint[k * options: (k + 1) * options])
                        for k in range(n_topics)
                    ]
                    state = side_state_without_token(
                        tokens_docs, z, n_topics, vocab_size, d, i
                    )
                    tree_counts_without_token(
                        tree, side, tokens_docs, z, paths, fixed_concept,
                        skip=(d, i),
                    )
                    # with `pseudo`, the combined model: transfer
                    # pseudo-counts in the topic prior, the tree's word term
                    row = None if pseudo is None else np.array(pseudo[d])
                    got = token_conditional(
                        state, d, i, hp, pseudo=row, tree=tree, side_index=side
                    )
                    worst = max(worst, float(np.abs(got - np.array(expected)).max()))
                    flat_pos += 1
    return worst


# ---------------------------------------------------------------------------
# bitwise references for the training sweeps: the scalar loops the package
# used to run, scoring one topic at a time and walking the unnormalised CDF.
# With a `trace` list, each also records every token's running score sums
# and scaled uniform, so a test can compare the scores themselves.
# ---------------------------------------------------------------------------


def _record(trace, probs, u):
    if trace is not None:
        sums, acc = [], 0.0
        for p in probs:
            acc += p
            sums.append(acc)
        trace.append((sums, u))


def prior_vector_sweep_reference(
    tokens, z, ndk, priors, nwk, nk, beta, vbeta, n_topics, rng, trace=None
):
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
            _record(trace, probs, u)
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


def concept_free_sweep(lib, doc_start, tokens, z, ndk, priors, nwk, beta, rng, cdf):
    """The one compiled training sweep as LDA, soft links and hard links
    run it: over a tree built from an empty dictionary, where every word
    is its own root leaf, whose root-leaf totals start as the column sums
    of `nwk`. Updates the int64 arrays `z`, `ndk` and `nwk` in place, as
    the scalar `prior_vector_sweep_reference` updates its lists (its `nk`
    is then `nwk.sum(axis=0)`), drawing one double per token from `rng`."""
    n_topics = nwk.shape[1]
    vocabularies = (
        Vocabulary("l1", [f"w{i}" for i in range(len(nwk))]), Vocabulary("l2", []),
    )
    tree = DirichletTree(BilingualDictionary("l1", "l2", []), *vocabularies, n_topics)
    tree.untrans_total[0] += nwk.sum(axis=0)
    lib.sweep_tree(
        len(ndk), n_topics, doc_start, tokens, z, np.full(len(tokens), -1, dtype=np.int64),
        ndk, priors, nwk, tree.member_start[0], tree.member_concepts[0],
        tree.concept_topic, tree.leaf_topic[0], tree.concept_total, tree.untrans_total[0],
        beta, 0.01, 100.0, tree.root_children_prior(0, 0.01, beta),
        rng.bit_generator.ctypes.bit_generator, cdf, np.empty(n_topics),
    )


def hardlink_iteration_reference(lib, sides, paths, links, tree, hp, rng):
    """One hard-link training iteration as `train` ran it before hard links
    became weight-1 transfer rows: side 1 then side 2, each swept with
    alpha priors while its linked rows (`links`, (side-1 doc, side-2 doc)
    pairs) hold their partners' counts added in, taken off after. The
    score is then (nd + partner) + alpha."""
    for s in (0, 1):
        side = sides[s]
        own, partner = links[:, s], links[:, 1 - s]
        side.doc_topic[own] += sides[1 - s].doc_topic[partner]
        _tree_sweep(lib, side, paths[s], np.full(side.doc_topic.shape, hp.alpha), tree, s, hp, rng)
        side.doc_topic[own] -= sides[1 - s].doc_topic[partner]


def pooled_hardlink_sweep_reference(
    tokens, z, ndk, pools, alpha, nwk, nk, beta, vbeta, n_topics, rng, trace=None
):
    """Joint-formulation hard links: each linked pair shares one pooled
    topic-count row (pools[d]); per-document rows are kept for bookkeeping.
    Training runs no kernel of this form: it mixes the partner's counts
    into the document's prior and runs the one sweep over a tree without
    concepts, which samples the same topics."""
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
            _record(trace, probs, u)
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


def sweep_tree_reference(
    tokens, z, paths, ndk, priors, nwk, nk, memberships,
    ncp, nleaf, ctotal, utotal, beta, beta_root, beta_internal, root_prior,
    n_topics, rng, trace=None,
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
            _record(trace, probs, u)
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


# ---------------------------------------------------------------------------
# bitwise references for the vectorised read-only paths: the straightforward
# one-document, one-label, one-fold, one-concept loops the package used to run
# ---------------------------------------------------------------------------


def infer_heldout_reference(model, heldout, seed=0, iterations=None):
    """Held-out Gibbs inference one document and one token at a time,
    walking the unnormalised CDF topic by topic."""
    side = model.side_of_language(heldout.language)
    hp = model.hyperparams
    n_iter = hp.infer_iterations if iterations is None else iterations
    phi_per_word = model.phi[side].T.tolist()
    alpha = hp.alpha
    n_topics = hp.k
    theta = np.empty((len(heldout.documents), n_topics), dtype=np.float64)
    streams = np.random.SeedSequence(seed).spawn(len(heldout.documents))
    for d, doc in enumerate(heldout.documents):
        rng = np.random.default_rng(streams[d])
        toks = doc.tokens
        n = len(toks)
        if n == 0:
            theta[d] = 1.0 / n_topics
            continue
        zd = rng.integers(0, n_topics, size=n).tolist()
        nd = [0] * n_topics
        for topic in zd:
            nd[topic] += 1
        for _ in range(n_iter):
            us = rng.random(n).tolist()
            for i, w in enumerate(toks):
                k0 = zd[i]
                nd[k0] -= 1
                pw = phi_per_word[w]
                total = 0.0
                probs = []
                append = probs.append
                for kk in range(n_topics):
                    p = (nd[kk] + alpha) * pw[kk]
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
        theta[d] = (np.array(nd, dtype=np.float64) + alpha) / (n + n_topics * alpha)
    return theta


def sigmoid_reference(x):
    """Logistic function with boolean-mask branches for each sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fit_reference(x, y, l2=1.0, learning_rate=0.5, epochs=500):
    """One binary problem by full-batch gradient descent, one epoch of
    2-D @ 1-D products at a time (the loss is computed and discarded, as
    the original loop did). Returns (weights, bias)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = x.shape[0]
    weights = np.zeros(x.shape[1], dtype=np.float64)
    bias = 0.0
    for _ in range(epochs):
        z = x @ weights + bias
        ce = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z))) - y * z
        float(ce.mean() + l2 / (2.0 * m) * weights @ weights)
        residual = sigmoid_reference(z) - y
        grad_w = x.T @ residual / m + (l2 / m) * weights
        grad_b = float(residual.mean())
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    return weights, bias


def _predict_proba_reference(weights, bias, x):
    return sigmoid_reference(np.asarray(x, dtype=np.float64) @ weights + bias)


def cross_val_folds_reference(x, y, n_folds, seed):
    """The per-fold loop: one separate fit on each fold's training rows.
    Returns (held_out, weights, bias, posteriors, accuracy) per fold."""
    from multitopic.logreg import stratified_folds

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    out = []
    all_idx = np.arange(len(y))
    for fold in stratified_folds(y, n_folds, rng):
        mask = np.ones(len(y), dtype=bool)
        mask[fold] = False
        w, b = fit_reference(x[all_idx[mask]], y[all_idx[mask]])
        posteriors = _predict_proba_reference(w, b, x[fold])
        pred = (posteriors >= 0.5).astype(np.int64)
        out.append((fold, w, b, posteriors, float((pred == y[fold]).mean())))
    return out


def cross_val_accuracy_reference(x, y, n_folds, seed):
    """Mean held-out accuracy over the per-fold loop's folds."""
    return float(np.mean([fold[-1] for fold in cross_val_folds_reference(x, y, n_folds, seed)]))


def _tune_threshold_reference(x, y, folds, seed):
    from multitopic.evaluate import micro_f1

    posteriors = np.zeros(len(y))
    for fold, _, _, fold_posteriors, _ in cross_val_folds_reference(x, y, folds, seed):
        posteriors[fold] = fold_posteriors
    best_threshold, best_f1 = 0.5, -1.0
    for threshold in np.arange(0.05, 1.0, 0.05):
        pred = posteriors >= threshold
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        score = micro_f1(tp, fp, fn)
        if score > best_f1:
            best_f1, best_threshold = score, float(threshold)
    return best_threshold


def classify_crosslingual_reference(
    train_theta, train_labels, test_theta, test_labels,
    tune_thresholds=False, folds=5, seed=0,
):
    """One-vs-rest micro-F1 with one separate fit per label. Returns
    (f1, {label: (weights, bias)}) for every label that was fitted."""
    from multitopic.evaluate import micro_f1

    train_theta = np.asarray(train_theta, dtype=np.float64)
    test_theta = np.asarray(test_theta, dtype=np.float64)
    train_sets = [frozenset(ls or ()) for ls in train_labels]
    test_sets = [frozenset(ls or ()) for ls in test_labels]
    universe = sorted(set().union(*train_sets, *test_sets)) if train_sets else []
    fitted = {}
    tp = fp = fn = 0
    for label in universe:
        y_train = np.array([1 if label in s else 0 for s in train_sets], dtype=np.int64)
        y_test = np.array([1 if label in s else 0 for s in test_sets], dtype=np.int64)
        if y_train.sum() == 0:
            pred = np.zeros(len(y_test), dtype=bool)
        elif y_train.sum() == len(y_train):
            pred = np.ones(len(y_test), dtype=bool)
        else:
            w, b = fit_reference(train_theta, y_train)
            fitted[label] = (w, b)
            threshold = 0.5
            if tune_thresholds:
                threshold = _tune_threshold_reference(train_theta, y_train, folds, seed)
            pred = _predict_proba_reference(w, b, test_theta) >= threshold
        tp += int((pred & (y_test == 1)).sum())
        fp += int((pred & (y_test == 0)).sum())
        fn += int((~pred & (y_test == 1)).sum())
    return micro_f1(tp, fp, fn), fitted


def concept_topic_distribution(word_topics, concept, side, beta):
    """Topic distribution of a concept's word on one side of the (side1,
    side2) pair of word-topic tables: counts smoothed by beta, normalized;
    uniform when there is no evidence at all."""
    word_topic = word_topics[side]
    word = concept.word1 if side == 0 else concept.word2
    counts = word_topic[word].astype(np.float64) + beta
    total = counts.sum()
    if total <= 0.0:
        return np.full(word_topic.shape[1], 1.0 / word_topic.shape[1])
    return counts / total


def concept_features_reference(word_topics, concepts, beta):
    """LIS feature rows built one concept and one side at a time."""
    rows = []
    labels = []
    for concept in sorted(concepts, key=lambda c: (c.word1, c.word2)):
        for side in (0, 1):
            rows.append(concept_topic_distribution(word_topics, concept, side, beta))
            labels.append(side)
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def pair_set(dictionary):
    """A dictionary's concepts as a set of (word1, word2) pairs."""
    return set(map(tuple, dictionary.words.tolist()))


def doc_types(corpus):
    """Distinct word ids per document."""
    return [set(d.tokens) for d in corpus.documents]


def adaptive_schedule_reference(cfg, matrices, tables, dictionary, beta, seed):
    """The adaptive schedule scoring LIS as each LIS iteration comes, one
    `compute_lis` call at a time; `tables[i]` holds the word-topic tables
    at the end of iteration i + 1. Returns the LisHistory and the events."""
    from multitopic.schedule import LisHistory, _anneal_rule, compute_lis
    from multitopic.transfer import anneal_matrix

    history = LisHistory(interval=cfg.interval)
    events = []
    for iteration, word_topics in enumerate(tables, start=1):
        if iteration % cfg.lis_every == 0:
            history.add(iteration, compute_lis(word_topics, dictionary, beta, seed=seed))
        if (
            iteration % cfg.interval == 0
            and 2 * cfg.interval <= iteration <= cfg.stop_iteration
            and _anneal_rule(history, iteration)[2]
        ):
            matrices = [anneal_matrix(m, cfg.temperature) for m in matrices]
            events.append({
                "iteration": iteration,
                "mode": "adaptive",
                "lis": history.values[-1],
                "rows_annealed": sum(m.nonempty_rows() for m in matrices),
                "max_weight_mean": float(np.mean([m.mean_row_max() for m in matrices])),
            })
    return history, events


def build_transfer_rows_reference(target, source, dictionary, numerator="pairs"):
    """Transfer rows scored one target document at a time through dict
    inverted indexes, as `build_transfer_matrix` used to: a list of
    (source index array, weight array) pairs, indices ascending."""
    target_is_side2 = target.language == dictionary.lang2
    concepts = dictionary.concepts
    by_target = {}
    for c in concepts:
        by_target.setdefault(c.word2 if target_is_side2 else c.word1, []).append(c.concept_id)

    def source_word(cid):
        c = concepts[cid]
        return c.word1 if target_is_side2 else c.word2

    source_types = doc_types(source)
    docs_with = {}
    for j, types in enumerate(source_types):
        for w in types:
            docs_with.setdefault(w, []).append(j)

    rows = []
    for t_types in doc_types(target):
        pair_counts = {}
        for w_t in t_types:
            for cid in by_target.get(w_t, ()):
                for j in docs_with.get(source_word(cid), ()):
                    pair_counts[j] = pair_counts.get(j, 0) + 1
        scored = []
        for j, n_pairs in pair_counts.items():
            union = len(source_types[j]) + len(t_types)
            if numerator == "pairs":
                score = n_pairs / union
            else:
                covered_t = set()
                covered_s = set()
                for w_t in t_types:
                    for cid in by_target.get(w_t, ()):
                        if source_word(cid) in source_types[j]:
                            covered_t.add(w_t)
                            covered_s.add(source_word(cid))
                score = (len(covered_t) + len(covered_s)) / union
            scored.append((j, score))
        scored.sort()
        idx = np.array([j for j, _ in scored], dtype=np.int64)
        raw = np.array([score for _, score in scored], dtype=np.float64)
        rows.append((idx, raw / raw.sum() if len(raw) else raw))
    return rows


def matrix_from_rows(target_language, source_language, rows):
    """A `TransferMatrix` holding `rows`, a list of (index array, weight
    array) pairs, as its CSR table."""
    lengths = [len(idx) for idx, _ in rows]
    return TransferMatrix(
        target_language, source_language,
        np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        np.concatenate([np.asarray(idx, dtype=np.int64) for idx, _ in rows] or [np.empty(0, np.int64)]),
        np.concatenate([np.asarray(w, dtype=np.float64) for _, w in rows] or [np.empty(0)]),
    )


# The list-of-rows transfer code that the CSR table replaced: one
# (index array, weight array) pair per row, each row its own allocation.
_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_W = np.empty(0, dtype=np.float64)


def normalise_block_reference(docs, j, raw, first, last):
    """The tail of `build_transfer_matrix` for one block of target
    documents [first, last): its cells' documents `docs` (ascending),
    source documents `j` and raw scores, one row per document, each
    divided by its own sum."""
    rows = []
    bounds = np.searchsorted(docs, np.arange(first, last + 1))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if a == b:
            rows.append((_EMPTY_IDX, _EMPTY_W))
        else:
            row = raw[a:b]
            rows.append((j[a:b], row / row.sum()))
    return rows


def max_weight_reference(rows):
    best = 0.0
    for _, weights in rows:
        if len(weights):
            best = max(best, float(weights.max()))
    return best


def static_focus_reference(rows, cfg):
    corpus_max = max_weight_reference(rows) if cfg.scope == "corpus_wise" else None
    out = []
    for idx, weights in rows:
        if not len(idx):
            out.append((_EMPTY_IDX, _EMPTY_W))
            continue
        reference = corpus_max if corpus_max is not None else float(weights.max())
        keep = weights > cfg.threshold * reference
        if keep.all():
            out.append((idx.copy(), weights.copy()))
        elif not keep.any():
            out.append((_EMPTY_IDX, _EMPTY_W))
        else:
            kept = weights[keep]
            out.append((idx[keep].copy(), kept / kept.sum()))
    return out


def anneal_rows_reference(rows, temperature):
    if temperature == 1.0:
        return [(idx.copy(), w.copy()) for idx, w in rows]
    power = 1.0 / temperature
    out = []
    for idx, weights in rows:
        if not len(idx):
            out.append((_EMPTY_IDX, _EMPTY_W))
            continue
        sharpened = weights**power
        out.append((idx.copy(), sharpened / sharpened.sum()))
    return out


def pseudo_counts_reference(rows, source_ndk):
    source = source_ndk.astype(np.float64)
    pseudo = np.zeros((len(rows), source.shape[1]), dtype=np.float64)
    for d, (idx, weights) in enumerate(rows):
        if len(idx):
            pseudo[d] = weights @ source[idx]
    return pseudo


def nonempty_rows_reference(rows):
    return sum(1 for idx, _ in rows if len(idx))


def mean_row_max_reference(rows):
    maxima = [float(w.max()) for _, w in rows if len(w)]
    return float(np.mean(maxima)) if maxima else 0.0


def npmi_reference(c1, c2, c12, total):
    """NPMI of one word pair from its counts, with the special cases in
    their order of precedence: a zero marginal gives 0, a zero joint
    count -1, words in every pair 0."""
    if c1 == 0 or c2 == 0:
        return 0.0
    if c12 == 0:
        return -1.0
    if c12 == total:
        return 0.0
    lp1 = math.log(c1 / total)
    lp2 = math.log(c2 / total)
    lp12 = math.log(c12 / total)
    value = (lp12 - lp1 - lp2) / (-lp12)
    return max(-1.0, min(1.0, value))


def cnpmi_topic_reference(words1, words2, pairs):
    """CNPMI of one topic as `evaluate.cnpmi_topic` used to count it: an
    inverted index of pair-index sets per word and side, and one set
    intersection per cross-language word pair."""
    index1, index2 = {}, {}
    for i, (side1, side2) in enumerate(pairs):
        for w in side1:
            index1.setdefault(w, set()).add(i)
        for w in side2:
            index2.setdefault(w, set()).add(i)
    total = len(pairs)
    terms = []
    for w1 in words1:
        docs1 = index1.get(w1, set())
        for w2 in words2:
            docs2 = index2.get(w2, set())
            terms.append(npmi_reference(len(docs1), len(docs2), len(docs1 & docs2), total))
    return math.fsum(terms) / len(terms)


def parse_reference_reference(text, v1, v2):
    """The pairs a reference file holds, or None when `load_reference`
    must refuse it: a nonblank line that is not a JSON object with
    `l1_types` and `l2_types` lists of strings, or no pair left with
    in-vocabulary types on both sides."""
    pairs = []
    for line in io.StringIO(text, newline=None):  # the lines a text-mode file yields
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(rec, dict) or "l1_types" not in rec or "l2_types" not in rec:
            return None
        sides = []
        for key, vocab in (("l1_types", v1), ("l2_types", v2)):
            types = rec[key]
            if not isinstance(types, list) or any(not isinstance(w, str) for w in types):
                return None
            sides.append(frozenset(vocab.id_of_word[w] for w in types if w in vocab.id_of_word))
        if sides[0] and sides[1]:
            pairs.append(tuple(sides))
    return pairs or None


def vocabulary_reference(token_docs, stopwords, top_frequent):
    """The training vocabulary, words in id order, built in two passes:
    count the tokens that are not stopwords, rank the whole count table
    (count descending, then word) to drop the `top_frequent` first, then
    walk every token again and give ids in first-occurrence order."""
    counts = Counter()
    for tokens in token_docs:
        counts.update(t for t in tokens if t not in stopwords)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    removed = {w for w, _ in ranked[:top_frequent]}
    words, seen = [], set()
    for tokens in token_docs:
        for tok in tokens:
            if tok not in stopwords and tok not in removed and tok not in seen:
                seen.add(tok)
                words.append(tok)
    return words


def dictionary_pairs_reference(entries, v1, v2):
    """The (word1, word2) id pairs of the word-string `entries` that both
    vocabularies hold, in file order, a repeated pair kept once (`seen`)."""
    pairs, seen = [], set()
    for w1, w2 in entries:
        if w1 in v1.id_of_word and w2 in v2.id_of_word:
            pair = (v1.id_of_word[w1], v2.id_of_word[w2])
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return pairs


def model_to_json(model, include_counts=True):
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
