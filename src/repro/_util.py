"""Small internal helpers shared across subpackages."""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temporary file is fsync'd before the rename, so a crash at any
    point leaves either the complete old contents or the complete new
    contents — never a torn file.  Used by every artifact writer whose
    output something else (CI byte-comparison, crash recovery) re-reads.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def make_rng(seed: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (non-deterministic), an integer seed, an existing
    generator (returned unchanged), or a :class:`numpy.random.SeedSequence`.
    Centralizing this keeps every stochastic component of the library
    seedable through one conventional entry point.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_rng(rng: np.random.Generator, *labels: object) -> np.random.Generator:
    """Derive a reproducible child generator from ``rng`` and labels.

    The child stream is a deterministic function of the parent stream
    state and the labels — and only of those: the label mix uses
    :func:`stable_seed` rather than :func:`hash`, so identical runs in
    different processes (hash randomization) observe identical noise.
    """
    seed = int(rng.integers(0, 2**32)) ^ stable_seed(*labels)
    return np.random.default_rng(seed)


_UINT32_MAX = 0xFFFFFFFF


def bounded_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """Exact, cheap replica of NumPy's bounded integer draw for ``rng``.

    Returns ``draw(high)``: a uniform integer in ``[0, high]`` that
    consumes ``rng``'s bit generator exactly as NumPy's
    ``random_bounded_uint64`` does — no draw for ``high == 0``, else
    the 32-bit Lemire rejection method over ``next_uint32``.  So
    ``draw(k - 1)`` equals ``int(rng.integers(k))`` in value *and* in
    the generator state it leaves behind, without the Python-level
    ``Generator`` call overhead.  Ranges past 32 bits defer to
    ``rng.integers`` itself.

    The returned closure holds ctypes handles into the live bit
    generator (NumPy declares their signatures; the closure keeps
    ``rng`` alive): keep it local to one search, never pickle it.
    """
    iface = rng.bit_generator.ctypes
    next_uint32, state = iface.next_uint32, iface.state

    def draw(high: int) -> int:
        if high == 0:
            return 0
        if high >= _UINT32_MAX:
            return int(rng.integers(high + 1))
        span = high + 1
        product = next_uint32(state) * span
        leftover = product & _UINT32_MAX
        if leftover < span:
            threshold = (_UINT32_MAX - high) % span
            while leftover < threshold:
                product = next_uint32(state) * span
                leftover = product & _UINT32_MAX
        return product >> 32

    return draw


def draw_pair(draw: Callable[[int], int], n: int) -> Tuple[int, int]:
    """``rng.choice(n, size=2, replace=False)`` replayed over ``draw``.

    NumPy samples two of ``n`` without replacement by Floyd's algorithm
    (the second pick collides into ``n - 1``), then shuffles the pair
    with one more draw.
    """
    first = draw(n - 2)
    second = draw(n - 1)
    if second == first:
        second = n - 1
    if draw(1) == 0:
        return second, first
    return first, second


def stable_seed(*labels: object) -> int:
    """Map a tuple of labels to a stable 32-bit seed.

    Unlike :func:`hash`, the result is stable across interpreter runs
    (``PYTHONHASHSEED`` does not affect it), which matters because the
    measurement oracle keys simulation seeds off workload names.
    """
    acc = 2166136261
    for label in labels:
        for byte in str(label).encode("utf-8"):
            acc ^= byte
            acc = (acc * 16777619) % (2**32)
        acc ^= 0xABCD
        acc = (acc * 16777619) % (2**32)
    return acc


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable of floats."""
    items = list(values)
    if not items:
        raise ValueError("mean() of empty sequence")
    return float(sum(items)) / len(items)


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted arithmetic mean.

    Raises
    ------
    ValueError
        If lengths differ, the sequences are empty, or weights sum to 0.
    """
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if not values:
        raise ValueError("weighted_mean() of empty sequence")
    total_weight = float(sum(weights))
    if total_weight <= 0.0:
        raise ValueError("weights must sum to a positive value")
    return float(sum(v * w for v, w in zip(values, weights))) / total_weight


def percent_error(predicted: float, actual: float) -> float:
    """Absolute percentage error of ``predicted`` against ``actual``."""
    if actual == 0.0:
        raise ValueError("actual value must be non-zero for percent error")
    return abs(predicted - actual) / abs(actual) * 100.0
