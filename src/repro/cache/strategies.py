"""Prefetch strategies computed on chunk *indexes* (paper §3.2).

The default strategy is the paper's ad-hoc adaptive prefetcher, "comparable
to an exponentially incremented adaptive asynchronous multi-stream
prefetcher" (AMP, Gill & Bathen 2007): the prefetch depth doubles with each
confirmed sequential access, saturates at the full parallelism degree, and
drops to nothing when an access breaks the run; independent interleaved
access streams (two readers walking different files inside one TAR) are
tracked separately.

Strategies are stateless with respect to what was *actually* prefetched:
they return wishes based on recent accesses, and the fetcher filters out
chunks already cached or in flight (§3.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

__all__ = [
    "PrefetchStrategy",
    "FetchNextFixed",
    "FetchNextAdaptive",
    "FetchMultiStream",
]


class PrefetchStrategy(ABC):
    """Maps recent access history to a list of chunk indexes to prefetch."""

    @abstractmethod
    def prefetch(self, history, degree: int) -> list:
        """Chunk indexes to prefetch given ``history`` (oldest..newest).

        ``degree`` is the saturation depth — the fetcher passes its
        parallelization. Indexes may be speculative (beyond EOF); the
        fetcher drops unreachable ones.
        """


class FetchNextFixed(PrefetchStrategy):
    """Always prefetch the next ``degree`` chunks after the last access."""

    def prefetch(self, history, degree: int) -> list:
        if not history:
            return []
        last = history[-1]
        return [last + step for step in range(1, degree + 1)]


def _run_length(accesses) -> int:
    """Length of the sequential run of chunk ids ending at the newest access;
    repeats of one id count once (a demand-stopped or budget-split chunk is
    requested twice in its cell, which breaks no pattern)."""
    run, current = 1, accesses[-1]
    for previous in reversed(accesses):
        if previous == current:
            continue
        if previous != current - 1:
            break
        run, current = run + 1, previous
    return run


class FetchNextAdaptive(PrefetchStrategy):
    """Exponentially ramping single-stream prefetcher (the paper default).

    The first access already prefetches the full degree ("so that
    decompression starts fully parallel"), a run of k >= 2 sequential
    accesses ``min(degree, 2**k)``, and an access that breaks the run
    nothing: random access decodes only the chunks it reads.
    """

    def prefetch(self, history, degree: int) -> list:
        if not history:
            return []
        if len(set(history)) == 1:
            depth = degree
        else:
            run = _run_length(history)
            depth = min(degree, 1 << run) if run > 1 else 0
        last = history[-1]
        return [last + step for step in range(1, depth + 1)]


class FetchMultiStream(PrefetchStrategy):
    """Adaptive prefetch over several concurrent sequential streams.

    Accesses are attributed to the stream whose last index is closest
    (within ``stream_gap``); each stream ramps independently and the union
    of wishes is returned, newest stream first. This is the pattern of
    ratarmount serving two files of one TAR concurrently (§3.2). After the
    history's first access, a stream its newest access did not extend wishes
    nothing.
    """

    def __init__(self, stream_gap: int = 32, max_streams: int = 16):
        self._stream_gap = stream_gap
        self._max_streams = max_streams

    def prefetch(self, history, degree: int) -> list:
        if not history:
            return []
        streams: deque = deque(maxlen=self._max_streams)  # [ [indexes...], ... ]
        for index in history:
            best = None
            for stream in streams:
                if 0 <= index - stream[-1] <= self._stream_gap:
                    if best is None or stream[-1] > best[-1]:
                        best = stream
            if best is None:
                streams.append([index])
            else:
                best.append(index)
        last = history[-1]
        wishes: list = []
        ordered = sorted(streams, key=lambda s: s[-1] != last)  # active stream first
        per_stream = max(1, degree // max(len(ordered), 1))
        first_access = len(set(history)) == 1
        for stream in ordered:
            run = _run_length(stream)
            if run == 1 and not first_access:
                continue
            depth = min(per_stream if stream[-1] != last else degree, 1 << run)
            wishes.extend(stream[-1] + step for step in range(1, depth + 1))
        return list(dict.fromkeys(wishes))[: 2 * degree]  # ordered, unique
