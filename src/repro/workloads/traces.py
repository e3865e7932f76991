"""Trace-driven workloads.

Besides the closed-loop application models, experiments sometimes need
*open-loop* request streams — fixed submission times regardless of
completion progress (e.g. to replay a recorded production trace, or to
stress a scheduler with precisely shaped arrivals).  This module provides:

* :class:`TraceEntry` / :class:`TraceWorkload` — replay a list of
  (time, size, kind) submissions, open- or closed-loop;
* :func:`synthesize_poisson_trace` — Poisson arrivals with lognormal
  sizes, the standard synthetic stand-in when real traces are private;
* :func:`save_trace_csv` / :func:`load_trace_csv` — a plain-text trace
  interchange format.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from repro.gpu.request import RequestKind
from repro.workloads.base import Workload


@dataclass(frozen=True)
class TraceEntry:
    """One request in a trace."""

    at_us: float  # submission time relative to workload start
    size_us: float
    kind: RequestKind = RequestKind.COMPUTE

    def validate(self) -> None:
        if self.at_us < 0:
            raise ValueError("trace times must be non-negative")
        if self.size_us <= 0:
            raise ValueError("trace sizes must be positive")


class TraceWorkload(Workload):
    """Replays a trace.

    ``open_loop=True`` submits each entry at its recorded time (falling
    behind only by the submission path itself) with non-blocking requests;
    ``open_loop=False`` treats the inter-arrival gaps as think time and
    blocks on each request — a closed-loop replay.  A round is one
    request, timed from its scheduled submission to completion (i.e.
    open-loop rounds include queueing delay, the latency a trace consumer
    cares about).
    """

    def __init__(
        self,
        entries: Sequence[TraceEntry],
        name: str = "trace",
        open_loop: bool = True,
        repeat: bool = False,
    ) -> None:
        super().__init__(name)
        self.entries = list(entries)
        for entry in self.entries:
            entry.validate()
        if not self.entries:
            raise ValueError("a trace needs at least one entry")
        if sorted(e.at_us for e in self.entries) != [
            e.at_us for e in self.entries
        ]:
            raise ValueError("trace entries must be time-ordered")
        self.open_loop = open_loop
        self.repeat = repeat

    def run(self) -> None:
        kinds = {entry.kind for entry in self.entries}
        # Open in sorted order so channel-id assignment (and with it the
        # whole trajectory) is independent of set hash order.
        self._channels = {
            kind: self.open_channel(kind)
            for kind in sorted(kinds, key=lambda kind: kind.value)
        }
        #: Open-loop requests submitted but not yet settled.
        self._in_flight = 0
        self._replayed = False
        self._replay()

    def _replay(self) -> None:
        self._epoch = self.sim.now
        self._index = 0
        self._next()

    def _next(self) -> None:
        """Wait for the next entry's turn, or end the pass."""
        index = self._index
        if index == len(self.entries):
            if self.repeat:
                self._replay()
                return
            self._replayed = True
            if self._in_flight == 0:
                self.finish()
            # Otherwise the last open-loop completion exits.
            return
        entry = self.entries[index]
        self._index = index + 1
        if self.open_loop:
            target = self._epoch + entry.at_us
            if target > self.sim.now:
                self.sleep(target - self.sim.now, self._submit_open, entry)
            else:
                self._submit_open(entry)
            return
        previous_at = self.entries[index - 1].at_us if index else 0.0
        gap = entry.at_us - previous_at
        if gap > 0:
            self.sleep(gap, self._submit_closed, entry)
        else:
            self._submit_closed(entry)

    def _submit_open(self, entry: TraceEntry) -> None:
        self._in_flight += 1
        request = self.submit(self._channels[entry.kind], entry.size_us,
                              self._next, blocking=False)
        request.waiter = (self._tick, (self._gen, self._settled,
                                       (self.sim.now,)))

    def _settled(self, scheduled: float) -> None:
        """An open-loop request settled: its round ends here."""
        self.rounds.record(scheduled, self.sim.now)
        self._in_flight -= 1
        if self._replayed and self._in_flight == 0:
            self.finish()

    def _submit_closed(self, entry: TraceEntry) -> None:
        self._start = self.sim.now
        self.submit(self._channels[entry.kind], entry.size_us, self._closed_done)

    def _closed_done(self) -> None:
        self.rounds.record(self._start, self.sim.now)
        self._next()


def synthesize_poisson_trace(
    rng: np.random.Generator,
    rate_per_ms: float,
    mean_size_us: float,
    duration_us: float,
    size_sigma: float = 0.5,
    kind: RequestKind = RequestKind.COMPUTE,
) -> list[TraceEntry]:
    """Poisson arrivals with lognormal service sizes.

    Draws are vectorized in blocks — one ``standard_exponential`` block
    for the inter-arrival gaps, one ``normal`` block for the sizes — so
    synthesizing a long trace costs a handful of numpy calls instead of
    two per entry.  For a given generator state the output is fully
    deterministic; within each distribution the draws are consumed in
    stream order (the final block may draw a few variates beyond the
    horizon — the price of vectorizing ahead).
    """
    if rate_per_ms <= 0 or mean_size_us <= 0 or duration_us <= 0:
        raise ValueError("rate, size, and duration must be positive")
    entries: list[TraceEntry] = []
    scale = 1000.0 / rate_per_ms
    mu = float(np.log(mean_size_us)) - size_sigma**2 / 2
    expected = rate_per_ms * duration_us / 1000.0
    chunk = max(64, int(expected * 1.1) + 16)
    now = 0.0
    while now < duration_us:
        gaps = rng.standard_exponential(chunk) * scale
        times = now + np.cumsum(gaps)
        sizes = np.exp(rng.normal(mu, size_sigma, chunk))
        np.maximum(sizes, 0.1, out=sizes)
        for at_us, size_us in zip(times.tolist(), sizes.tolist()):
            if at_us >= duration_us:
                return entries
            entries.append(TraceEntry(at_us=at_us, size_us=size_us, kind=kind))
        now = float(times[-1])
    return entries


def save_trace_csv(entries: Iterable[TraceEntry], path: Union[str, Path]) -> None:
    """Write a trace as ``at_us,size_us,kind`` rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["at_us", "size_us", "kind"])
        for entry in entries:
            writer.writerow([entry.at_us, entry.size_us, entry.kind.value])


def load_trace_csv(path: Union[str, Path]) -> list[TraceEntry]:
    """Read a trace written by :func:`save_trace_csv`."""
    entries = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            entries.append(
                TraceEntry(
                    at_us=float(row["at_us"]),
                    size_us=float(row["size_us"]),
                    kind=RequestKind(row["kind"]),
                )
            )
    return entries
