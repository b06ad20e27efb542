# The two-path stochastic MoE layer
# ---------------------------------
# Given a random stream (training), the layer routes the clean input and a
# Gaussian-perturbed copy independently, as one stacked batch through one
# route and one expert combine, then blends the two expert mixtures with a
# learned per-token gate in (0, 1). Without a stream (eval) only the
# clean path runs and nothing is drawn, so inference cost equals the plain
# sparse layer.

import numpy as np

from s2moe import RngStream, S2MoeLayer, compute_batch_stats, perturb
from s2moe.tensor import Tensor

d = 16
layer = S2MoeLayer(d, n_experts=8, d_expert=32, rng=RngStream(0), dtype=np.float64)
x = Tensor(np.random.default_rng(1).standard_normal((4, 6, d)))

# Per-batch, per-dimension noise statistics (detached from the graph).
stats = compute_batch_stats(x)
print("mu[:4]   :", np.round(stats.mu[:4], 3))
print("sigma[:4]:", np.round(stats.sigma[:4], 3))

# x_hat = n1 * x + n2 with n1 ~ N(1, sigma^2), n2 ~ N(mu, sigma^2), made
# stacked under x: both paths' rows in one (2B, T, d) batch.
pair = perturb(x, stats, RngStream(42))
x_hat = pair.data[x.shape[0]:]
print("two-path batch:", pair.shape)
print("mean |x_hat - x|:", float(np.mean(np.abs(x_hat - x.data))))

# With a stream: both paths, blended; the aux carries both routing decisions
# and the pooled pair the uncertainty loss consumes.
y_train, aux = layer.forward(x, k=2, rng=RngStream(7))
clean = {tuple(sorted(r)) for r in aux.decision.indices.reshape(-1, 2).tolist()}
noisy = {tuple(sorted(r)) for r in aux.decision_noisy.indices.reshape(-1, 2).tolist()}
print("expert sets differ between paths:", clean != noisy)
print("pooled pair shapes:", aux.pooled_clean.shape, aux.pooled_noisy.shape)

# Without a stream: single path, one routing decision, half the expert evaluations.
layer.experts.invocations = 0
y_eval, _ = layer.forward(x, k=2)
print("eval token-expert evaluations:", layer.experts.invocations, "(one path)")
