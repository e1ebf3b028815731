/* Compiled collapsed Gibbs steps for `multitopic.models`.
 *
 * One training kernel, sweep_tree, serves every model kind: it runs one
 * sweep over one language's tokens, in corpus order, on contiguous int64
 * count tables that it updates in place: the token's counts are removed,
 * every (leaf, topic) pair is scored, the token takes the first entry of
 * the running score sums that exceeds u * (sum of all scores), clamped to
 * the last entry, and its counts are added back. Document d's tokens are
 * tokens[doc_start[d] .. doc_start[d + 1]), z holds their topics and u
 * one uniform draw per token. infer_doc takes the same step on one
 * held-out document, with the topic-word table frozen. Each returns how
 * many tokens' scores summed to no positive finite number (an overflow;
 * infer_doc lets a word that no topic emits sum to 0 and take the last
 * topic); counting them changes no draw.
 *
 * These are the only sampling steps. Each score is the expression of the
 * scalar reference loops in tests/oracles.py, evaluated in the same order,
 * and the running sums are added left to right, so a build without
 * floating-point contraction or reassociation (-ffp-contract=off, no
 * -ffast-math) draws exactly the topics those loops draw.
 */

#include <float.h>
#include <stdint.h>

/* First index whose running sum exceeds x, clamped to n - 1. */
static int64_t pick(const double *cdf, int64_t n, double x)
{
    int64_t i = 0;
    while (i < n - 1 && !(x < cdf[i]))
        i++;
    return i;
}

/* Topic and tree leaf are drawn jointly over the word's concepts, concept
 * by concept (entry c * K + t of the running sums); a word without
 * concepts sits on its own root leaf (path -1). LDA, soft links and hard
 * links sweep a tree without concepts, where every word is a root leaf:
 * there root_prior is V * beta and utotal holds the topic totals, so a
 * root leaf scores what LDA scores.
 * Document d's topic prior is the float row priors[d]: alpha plus the
 * row's transfer pseudo-counts, for every kind. Under hard links they are
 * the partner's counts, in either formulation, as a linked pair sharing
 * one theta (joint) samples exactly as a document whose prior carries its
 * partner's counts (conditional); ndk holds this side's counts only.
 * ncp and ctotal pool both languages, nleaf and utotal are this side's.
 * With root = (double)(ctotal + utotal) + root_prior, kept per topic in
 * den and refreshed whenever a total changes, a concept leaf scores
 * (((ndp * (node + beta_root)) / root) * (leaf + beta_internal))
 * / (node + 2 * beta_internal) and a root leaf (ndp * (nw + beta)) / root,
 * where ndp = nd + pr. cdf holds K entries per concept of the word with
 * the most concepts, den K entries. */
int64_t sweep_tree(
    int64_t n_docs, int64_t n_topics, const int64_t *doc_start,
    const int64_t *tokens, int64_t *z, int64_t *paths, int64_t *ndk,
    const double *priors, int64_t *nwk,
    const int64_t *member_start, const int64_t *member_concepts,
    int64_t *ncp, int64_t *nleaf, int64_t *ctotal, int64_t *utotal,
    double beta, double beta_root, double beta_internal, double root_prior,
    const double *u, double *cdf, double *den)
{
    const int64_t K = n_topics;
    const double beta_int2 = 2.0 * beta_internal;
    int64_t bad = 0;
    for (int64_t t = 0; t < K; t++)
        den[t] = (double)(ctotal[t] + utotal[t]) + root_prior;
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
            if (c >= 0) {
                ncp[c * K + k]--;
                nleaf[c * K + k]--;
                ctotal[k]--;
            } else {
                utotal[k]--;
            }
            den[k] = (double)(ctotal[k] + utotal[k]) + root_prior;
            double acc = 0.0;
            if (n_ms == 0) {
                for (int64_t t = 0; t < K; t++) {
                    double ndp = (double)nd[t] + pr[t];
                    double score = (ndp * ((double)nw[t] + beta)) / den[t];
                    acc = t ? acc + score : score;
                    cdf[t] = acc;
                }
                k = pick(cdf, K, u[i] * acc);
                c = -1;
            } else {
                for (int64_t j = 0; j < n_ms; j++) {
                    const int64_t *node = ncp + ms[j] * K;
                    const int64_t *leaf = nleaf + ms[j] * K;
                    for (int64_t t = 0; t < K; t++) {
                        double ndp = (double)nd[t] + pr[t];
                        double score = (((ndp * ((double)node[t] + beta_root)) / den[t])
                                        * ((double)leaf[t] + beta_internal))
                                       / ((double)node[t] + beta_int2);
                        acc = (j || t) ? acc + score : score;
                        cdf[j * K + t] = acc;
                    }
                }
                const int64_t p = pick(cdf, n_ms * K, u[i] * acc);
                k = p % K;
                c = ms[p / K];
            }
            bad += !(acc > 0.0 && acc <= DBL_MAX);
            z[i] = k;
            paths[i] = c;
            nd[k]++;
            nw[k]++;
            if (c >= 0) {
                ncp[c * K + k]++;
                nleaf[c * K + k]++;
                ctotal[k]++;
            } else {
                utotal[k]++;
            }
            den[k] = (double)(ctotal[k] + utotal[k]) + root_prior;
        }
    }
    return bad;
}

/* Held-out inference for one document of n tokens, phi frozen: n_iter
 * passes over the tokens in order, each token scoring topic t as
 * ((double)nd[t] + alpha) * phi_t[w * K + t] with its own assignment
 * removed from nd. phi_t is the V x K transpose of phi; u holds
 * n_iter * n uniforms, one pass's after another. */
int64_t infer_doc(
    int64_t n, int64_t n_topics, int64_t n_iter, const int64_t *tokens,
    int64_t *z, int64_t *nd, const double *phi_t, double alpha,
    const double *u, double *cdf)
{
    const int64_t K = n_topics;
    int64_t bad = 0;
    for (int64_t it = 0; it < n_iter; it++) {
        const double *ui = u + it * n;
        for (int64_t i = 0; i < n; i++) {
            const double *pw = phi_t + tokens[i] * K;
            int64_t k = z[i];
            nd[k]--;
            double acc = 0.0;
            for (int64_t t = 0; t < K; t++) {
                double score = ((double)nd[t] + alpha) * pw[t];
                acc = t ? acc + score : score;
                cdf[t] = acc;
            }
            bad += !(acc <= DBL_MAX);
            k = pick(cdf, K, ui[i] * acc);
            z[i] = k;
            nd[k]++;
        }
    }
    return bad;
}
