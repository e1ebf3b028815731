/* Compiled collapsed Gibbs sweeps for `multitopic.models`.
 *
 * Each kernel runs one sweep over one language's tokens, in corpus order,
 * on contiguous int64 count tables that it updates in place: the token's
 * counts are removed, every (leaf,) topic is scored, the token takes the
 * first entry of the running score sums that exceeds u * (sum of all
 * scores), clamped to the last entry, and its counts are added back.
 * Document d's tokens are tokens[doc_start[d] .. doc_start[d + 1]), z
 * holds their topics and u one uniform draw per token.
 *
 * These are the only training sweeps. Each score is the expression of the
 * scalar reference loops in tests/oracles.py, evaluated in the same order,
 * and the running sums are added left to right, so a build without
 * floating-point contraction or reassociation (-ffp-contract=off, no
 * -ffast-math) draws exactly the topics those loops draw.
 */

#include <stdint.h>

/* First index whose running sum exceeds x, clamped to n - 1. */
static int64_t pick(const double *cdf, int64_t n, double x)
{
    int64_t i = 0;
    while (i < n - 1 && !(x < cdf[i]))
        i++;
    return i;
}

/* LDA, soft links and conditional hard links: document d's topic prior is
 * the float row priors[d] (alpha, or alpha plus transfer pseudo-counts);
 * under conditional hard links the caller has added the partner's counts
 * to ndk. Score: ((nd + pr) * (nw + beta)) / (nk + vbeta). */
void sweep_plain(
    int64_t n_docs, int64_t n_topics, const int64_t *doc_start,
    const int64_t *tokens, int64_t *z, int64_t *ndk, const double *priors,
    int64_t *nwk, int64_t *nk, double beta, double vbeta,
    const double *u, double *cdf)
{
    const int64_t K = n_topics;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *nd = ndk + d * K;
        const double *pr = priors + d * K;
        for (int64_t i = doc_start[d]; i < doc_start[d + 1]; i++) {
            int64_t *nw = nwk + tokens[i] * K;
            int64_t k = z[i];
            nd[k]--;
            nw[k]--;
            nk[k]--;
            double acc = 0.0;
            for (int64_t t = 0; t < K; t++) {
                double score = (((double)nd[t] + pr[t]) * ((double)nw[t] + beta))
                               / ((double)nk[t] + vbeta);
                acc = t ? acc + score : score;
                cdf[t] = acc;
            }
            k = pick(cdf, K, u[i] * acc);
            z[i] = k;
            nd[k]++;
            nw[k]++;
            nk[k]++;
        }
    }
}

/* Joint hard links: a linked document (pool_of_doc[d] >= 0) scores its
 * topics with the pooled row it shares with its partner; its own row is
 * kept for bookkeeping. Score: ((row + alpha) * (nw + beta)) / (nk + vbeta). */
void sweep_pooled(
    int64_t n_docs, int64_t n_topics, const int64_t *doc_start,
    const int64_t *tokens, int64_t *z, int64_t *ndk,
    const int64_t *pool_of_doc, int64_t *pools, double alpha,
    int64_t *nwk, int64_t *nk, double beta, double vbeta,
    const double *u, double *cdf)
{
    const int64_t K = n_topics;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *nd = ndk + d * K;
        int64_t *pool = pool_of_doc[d] >= 0 ? pools + pool_of_doc[d] * K : 0;
        const int64_t *row = pool ? pool : nd;
        for (int64_t i = doc_start[d]; i < doc_start[d + 1]; i++) {
            int64_t *nw = nwk + tokens[i] * K;
            int64_t k = z[i];
            nd[k]--;
            nw[k]--;
            nk[k]--;
            if (pool)
                pool[k]--;
            double acc = 0.0;
            for (int64_t t = 0; t < K; t++) {
                double score = (((double)row[t] + alpha) * ((double)nw[t] + beta))
                               / ((double)nk[t] + vbeta);
                acc = t ? acc + score : score;
                cdf[t] = acc;
            }
            k = pick(cdf, K, u[i] * acc);
            z[i] = k;
            nd[k]++;
            nw[k]++;
            nk[k]++;
            if (pool)
                pool[k]++;
        }
    }
}

/* Vocabulary links: topic and tree leaf are drawn jointly over the
 * word's concepts, concept by concept (entry c * K + t of the running
 * sums); a word without concepts sits on its own root leaf (path -1).
 * ncp and ctotal pool both languages, nleaf and utotal are this side's.
 * With root = (double)(ctotal + utotal) + root_prior, a concept leaf
 * scores (((ndp * (node + beta_root)) / root) * (leaf + beta_internal))
 * / (node + 2 * beta_internal) and a root leaf (ndp * (nw + beta)) / root,
 * where ndp = nd + pr. cdf holds K entries per concept of the word with
 * the most concepts. */
void sweep_tree(
    int64_t n_docs, int64_t n_topics, const int64_t *doc_start,
    const int64_t *tokens, int64_t *z, int64_t *paths, int64_t *ndk,
    const double *priors, int64_t *nwk, int64_t *nk,
    const int64_t *member_start, const int64_t *member_concepts,
    int64_t *ncp, int64_t *nleaf, int64_t *ctotal, int64_t *utotal,
    double beta, double beta_root, double beta_internal, double root_prior,
    const double *u, double *cdf)
{
    const int64_t K = n_topics;
    const double beta_int2 = 2.0 * beta_internal;
    for (int64_t d = 0; d < n_docs; d++) {
        int64_t *nd = ndk + d * K;
        const double *pr = priors + d * K;
        for (int64_t i = doc_start[d]; i < doc_start[d + 1]; i++) {
            const int64_t w = tokens[i];
            int64_t *nw = nwk + w * K;
            const int64_t *ms = member_concepts + member_start[w];
            const int64_t n_ms = member_start[w + 1] - member_start[w];
            int64_t k = z[i];
            int64_t c = paths[i];
            nd[k]--;
            nw[k]--;
            nk[k]--;
            if (c >= 0) {
                ncp[c * K + k]--;
                nleaf[c * K + k]--;
                ctotal[k]--;
            } else {
                utotal[k]--;
            }
            double acc = 0.0;
            if (n_ms == 0) {
                for (int64_t t = 0; t < K; t++) {
                    double root = (double)(ctotal[t] + utotal[t]) + root_prior;
                    double ndp = (double)nd[t] + pr[t];
                    double score = (ndp * ((double)nw[t] + beta)) / root;
                    acc = t ? acc + score : score;
                    cdf[t] = acc;
                }
            } else {
                for (int64_t j = 0; j < n_ms; j++) {
                    const int64_t *node = ncp + ms[j] * K;
                    const int64_t *leaf = nleaf + ms[j] * K;
                    for (int64_t t = 0; t < K; t++) {
                        double root = (double)(ctotal[t] + utotal[t]) + root_prior;
                        double ndp = (double)nd[t] + pr[t];
                        double score = (((ndp * ((double)node[t] + beta_root)) / root)
                                        * ((double)leaf[t] + beta_internal))
                                       / ((double)node[t] + beta_int2);
                        acc = (j || t) ? acc + score : score;
                        cdf[j * K + t] = acc;
                    }
                }
            }
            const int64_t n = (n_ms ? n_ms : 1) * K;
            const int64_t p = pick(cdf, n, u[i] * acc);
            k = p % K;
            c = n_ms ? ms[p / K] : -1;
            z[i] = k;
            paths[i] = c;
            nd[k]++;
            nw[k]++;
            nk[k]++;
            if (c >= 0) {
                ncp[c * K + k]++;
                nleaf[c * K + k]++;
                ctotal[k]++;
            } else {
                utotal[k]++;
            }
        }
    }
}
