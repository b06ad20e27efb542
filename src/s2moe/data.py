"""Corpus ingestion and batching.

Any byte stream is accepted: the vocabulary is the set of bytes seen in the
train split (id order = byte order) plus one reserved unknown id for bytes
that only appear later. Splits are cut at deterministic integer boundaries;
batches are built from contiguous non-overlapping windows.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np


class Corpus:
    """A tokenized corpus: the vocabulary and three int32 token-id splits.

    A split may be given as a function that returns its ids; it is called
    when the split is first read, and its result replaces it. ``ingest_corpus``
    gives each split that way, holding the split's bytes until then, so a
    run tokenizes only the splits it reads.
    """

    def __init__(self, vocab_bytes: list[int], unk_id: int, train, val, test):
        self.vocab_bytes = vocab_bytes    # byte value per id, unknown id excluded
        self.unk_id = unk_id
        self._splits = {"train": train, "val": val, "test": test}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab_bytes) + 1

    def split(self, name: str) -> np.ndarray:
        """The ids of split ``name`` (train, val or test)."""
        if name not in self._splits:
            raise ValueError(f"unknown split '{name}'")
        ids = self._splits[name]
        if callable(ids):
            ids = self._splits[name] = ids()
        return ids

    train = property(lambda self: self.split("train"))
    val = property(lambda self: self.split("val"))
    test = property(lambda self: self.split("test"))


def ingest_corpus(path: str, splits=(0.9, 0.05, 0.05)) -> Corpus:
    """Read a corpus file into train/val/test splits over the train split's vocabulary.

    Each split's bytes are read straight into their own array, with no buffer
    of the whole file, and become ids when the split is first read.
    """
    with open(path, "rb") as fh:
        n = os.fstat(fh.fileno()).st_size
        if n == 0:
            raise ValueError(f"corpus '{path}' is empty")
        if len(splits) != 3 or any(s < 0 for s in splits) or abs(sum(splits) - 1.0) > 1e-9:
            raise ValueError(f"splits must be three non-negative fractions summing to 1, got {splits}")
        b1 = int(n * splits[0])
        b2 = b1 + int(n * splits[1])
        parts = []
        for size in (b1, b2 - b1, n - b2):
            part = np.empty(size, dtype=np.uint8)
            if fh.readinto(part) != size:
                raise ValueError(f"corpus '{path}' changed size while it was read")
            parts.append(part)

    # a mask, not np.bincount: bincount casts the split to intp, a temporary 8x its size
    seen = np.zeros(256, dtype=bool)
    seen[parts[0]] = True
    vocab = np.flatnonzero(seen)
    unk_id = len(vocab)
    table = np.full(256, unk_id, dtype=np.int32)
    table[vocab] = np.arange(unk_id, dtype=np.int32)
    # each split is table[part], made when the split is first read
    return Corpus(vocab.tolist(), unk_id, *(partial(table.__getitem__, part) for part in parts))


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
