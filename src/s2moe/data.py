"""Corpus ingestion and batching.

Any byte stream is accepted: the vocabulary is the set of bytes seen in the
train split (id order = byte order) plus one reserved unknown id for bytes
that only appear later. Splits are cut at deterministic integer boundaries;
batches are built from contiguous non-overlapping windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Corpus:
    """A tokenized corpus; the three splits are int32 token-id arrays."""

    vocab_bytes: list[int]        # byte value per id, unknown id excluded
    unk_id: int
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    @property
    def vocab_size(self) -> int:
        return len(self.vocab_bytes) + 1


def ingest_corpus(path: str, splits=(0.9, 0.05, 0.05)) -> Corpus:
    """Read a corpus file and tokenize it into train/val/test id arrays."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0:
        raise ValueError(f"corpus '{path}' is empty")
    if len(splits) != 3 or any(s < 0 for s in splits) or abs(sum(splits) - 1.0) > 1e-9:
        raise ValueError(f"splits must be three non-negative fractions summing to 1, got {splits}")

    n = len(raw)
    b1 = int(n * splits[0])
    b2 = b1 + int(n * splits[1])
    data = np.frombuffer(raw, dtype=np.uint8)
    train_bytes, val_bytes, test_bytes = data[:b1], data[b1:b2], data[b2:]

    # a mask, not np.bincount: bincount casts the split to intp, a temporary 8x its size
    seen = np.zeros(256, dtype=bool)
    seen[train_bytes] = True
    vocab = np.flatnonzero(seen)
    unk_id = len(vocab)
    table = np.full(256, unk_id, dtype=np.int32)
    table[vocab] = np.arange(unk_id, dtype=np.int32)
    return Corpus(
        vocab_bytes=vocab.tolist(),
        unk_id=unk_id,
        train=table[train_bytes],
        val=table[val_bytes],
        test=table[test_bytes],
    )


def pair_count(tokens: np.ndarray, seq_len: int) -> int:
    """Windows that also have a full shifted-by-one target."""
    return max(0, (len(tokens) - 1) // seq_len)


def make_batch(tokens: np.ndarray, seq_len: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, targets) stacked over the windows ``indices``; targets are shifted one token."""
    starts = [int(i) * seq_len for i in indices]
    return (np.stack([tokens[s: s + seq_len] for s in starts]),
            np.stack([tokens[s + 1: s + seq_len + 1] for s in starts]))


# ---------------------------------------------------------------------------
# deterministic synthetic corpus (for offline desk-scale runs and tests)

_CONSONANTS = "bcdfghklmnprstvw"
_VOWELS = "aeiou"


def make_synthetic_corpus(path: str, n_bytes: int = 1_000_000, seed: int = 0) -> str:
    """Write ~n_bytes of deterministic pseudo-English prose to ``path``.

    Word shapes and Zipf-like frequencies give byte-level structure that a
    small model can learn, without shipping or downloading a real corpus.
    """
    rng = np.random.default_rng(seed)
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = []
    while len(words) < 160:
        n_syll = int(rng.integers(1, 4))
        word = "".join(syllables[int(rng.integers(0, len(syllables)))] for _ in range(n_syll))
        if word not in words:
            words.append(word)
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    weights = 1.0 / ranks ** 1.1
    weights /= weights.sum()

    chunks = []
    total = 0
    while total < n_bytes:
        length = int(rng.integers(4, 13))
        idx = rng.choice(len(words), size=length, p=weights)
        sentence = " ".join(words[int(i)] for i in idx)
        if rng.random() < 0.25:
            cut = int(rng.integers(1, max(2, length)))
            parts = sentence.split(" ")
            sentence = " ".join(parts[:cut]) + ", " + " ".join(parts[cut:])
        sentence = sentence[0].upper() + sentence[1:] + ". "
        if rng.random() < 0.12:
            sentence += "\n"
        chunks.append(sentence)
        total += len(sentence)
    text = "".join(chunks)[:n_bytes]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path
