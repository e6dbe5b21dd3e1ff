"""Pinned deterministic pseudo-randomness.

Reproducibility across platforms and library versions is a hard requirement
for the randomized campaigns, so the generator is spelled out here instead of
delegating to ``random`` or numpy:

* stream seeding: SplitMix64 (Steele-Lea-Flood finalizer), whose k-th
  output is mix(seed + k * gamma), so any run of outputs of any number of
  streams is one vectorised mix (``_splitmix``),
* raw 64-bit words: xoshiro256** (Blackman-Vigna),
* bounded draws: masked rejection on the top bits of the next word.

Identical seeds give identical streams everywhere, forever.  Seeds are
integers in 0..2^64-1 by the package's integer rule (``is_json_int``: a
bool or a float is no seed); anything else raises ``BadSeed`` rather than
being reduced or truncated, so two different seeds never name one stream.

Two implementations produce the same labels.  ``Xoshiro256StarStar`` is
the scalar generator behind ``random_labelling``: one labelling is a single
lane, and there plain Python beats numpy, whose fixed cost per call would
be paid on every step.  ``xoshiro_labels`` runs one lane per sub-seed of a
campaign in numpy uint64 arrays.  All lanes step in lockstep, each keeps
its own accepted draws in stream order, and a lane is done once it holds
all n(n-1) of them.  The campaigns use it; a differential test holds it
equal to the scalar generator.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BadSeed
from .groups import checked_int

_MASK64 = (1 << 64) - 1


def _check_seed(seed: int) -> int:
    return checked_int(seed, "seed {} outside 0..2^64-1", BadSeed, size=1 << 64)


_U64 = np.uint64


def _splitmix(seeds: Sequence[int], start: int, count: int) -> np.ndarray:
    """Outputs start+1..start+count of each seed's SplitMix64 stream, as a
    (count, len(seeds)) uint64 array; all arithmetic wraps in the arrays."""
    k = np.arange(start + 1, start + count + 1, dtype=_U64)[:, None]
    z = k * _U64(0x9E3779B97F4A7C15) + np.array([_check_seed(seed) for seed in seeds], dtype=_U64)
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _splitmix_lanes(seeds: Sequence[int]) -> np.ndarray:
    """The four xoshiro256** state words of each seed, one row each, one lane per column."""
    words = _splitmix(seeds, 0, 4)
    words[0, ~words.any(axis=0)] = 1  # all-zero state is the one forbidden state
    return words


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** seeded from a single 64-bit value via SplitMix64."""

    def __init__(self, seed: int):
        self.s = _splitmix_lanes([seed])[:, 0].tolist()

    def next(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound) by rejection on the top bits.

        One word is consumed per attempt even when bound == 1, which keeps
        draw positions in the stream independent of earlier outcomes.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = (bound - 1).bit_length()
        while True:
            word = self.next()
            candidate = word >> (64 - k)
            if candidate < bound:
                return candidate


def trial_seeds(master_seed: int, count: int, start: int = 0) -> list[int]:
    """Sub-seeds start..start+count-1 of a campaign, derived with SplitMix64."""
    return _splitmix([master_seed], start, count)[:, 0].tolist()


ROUND_WORDS = 1 << 14


def _next_words(state: list[np.ndarray], steps: int) -> np.ndarray:
    """Step every lane ``steps`` times, in place; the (steps, lanes) output words."""
    s0, s1, s2, s3 = state
    words = np.empty((steps, s1.size), dtype=_U64)
    t = np.empty_like(s1)
    for row in words:
        row[...] = s1  # the output is a function of s1 alone, scrambled below in one pass
        np.left_shift(s1, _U64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.bitwise_or(s3 << _U64(45), s3 >> _U64(19), out=s3)
    words *= _U64(5)
    np.bitwise_or(words << _U64(7), words >> _U64(57), out=words)
    words *= _U64(9)
    return words


def xoshiro_labels(order: int, n: int, seeds: Sequence[int]) -> np.ndarray:
    """The labels of ``random_labelling`` for every seed, as a (len(seeds), n, n) array.

    Lane i draws exactly what ``Xoshiro256StarStar(seeds[i]).below(order)``
    would, once per off-diagonal arc in row-major order; the diagonal is 0.
    Words are made in rounds of lockstep steps.  A round lasts as many
    steps as the lane with the most draws left needs on average, but at
    most ``ROUND_WORDS`` words over all lanes; the lanes still short run
    further rounds.  A round's buffers take a few dozen bytes per word, so
    memory is about ``ROUND_WORDS`` * 40 bytes plus the labels themselves.
    """
    arcs = n * (n - 1)
    labels = np.zeros((len(seeds), n, n), dtype=np.int64)
    state = list(_splitmix_lanes(seeds))
    k = (order - 1).bit_length()
    accept = order / (1 << k)
    draws = np.empty((len(seeds), arcs), dtype=np.int64)
    filled = np.zeros(len(seeds), dtype=np.int64)
    lanes = np.flatnonzero(filled < arcs)
    while lanes.size:
        need = int(arcs - filled[lanes].min())
        # the mean count of words for `need` draws, within the round's budget
        steps = min(math.ceil(need / accept), max(1, ROUND_WORDS // lanes.size))
        words = _next_words(state, steps)
        words >>= _U64(64 - k)  # the candidate draws
        accepted = words < order
        rank = filled[lanes] + np.cumsum(accepted, axis=0) - 1
        step, lane = np.nonzero(accepted & (rank < arcs))
        draws[lanes[lane], rank[step, lane]] = words[step, lane]
        filled[lanes] = np.minimum(rank[-1] + 1, arcs)
        short = filled[lanes] < arcs
        lanes = lanes[short]
        state = [word[short] for word in state]
    labels[:, ~np.eye(n, dtype=bool)] = draws
    return labels
