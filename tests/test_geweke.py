"""Geweke's successive-conditional test of the compiled inference kernel
(Geweke 2004, *Getting it right*; Grosse & Duvenaud 2014, *Testing MCMC
code*).

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

from multitopic import _native

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
