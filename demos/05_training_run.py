# A small end-to-end training run
# -------------------------------
# Generates a deterministic synthetic corpus, trains the stochastic variant
# for a few hundred steps at a shrunken desk configuration, and evaluates at
# two inference-time expert counts. Takes a minute or two on a laptop CPU.

import os
import tempfile

from s2moe import make_synthetic_corpus, preset
from s2moe.train import evaluate_model, load_run, train

workdir = tempfile.mkdtemp(prefix="s2moe-demo-")
corpus_path = os.path.join(workdir, "corpus.txt")
make_synthetic_corpus(corpus_path, n_bytes=300_000, seed=3)

cfg = preset("desk")
cfg.variant = "s2moe"
cfg.corpus = corpus_path
cfg.steps = 300
cfg.eval_interval = 50
cfg.out_dir = os.path.join(workdir, "run")

result = train(cfg, log=print)
print("\nmetrics file:", result.metrics_path)
print("final checkpoint:", result.final_checkpoint)

# rebuild the run from its checkpoint, as `s2moe eval` does: no init is drawn
cfg, corpus, model = load_run(result.final_checkpoint)
for k in (1, 2):
    ev = evaluate_model(model, corpus, cfg, k=k, split="val", with_collapse=False)
    print(f"val bpc at k={k}: {ev.bpc:.4f} (ppl {ev.ppl:.2f})")
