"""Seeded random-number streams for reproducible simulations.

Each simulation component (a cluster's background workload, the skeleton
sampler, the transfer model, ...) draws from its own named stream. Streams
are spawned from a single root :class:`numpy.random.SeedSequence`, so:

* a campaign is fully reproducible from one integer seed, and
* adding draws to one component does not perturb any other component,
  which keeps paired experiment comparisons statistically clean.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def _stable_stream_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """Registry of named, independently seeded numpy Generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: stream fetches, the observable proxy for "how much randomness
        #: was consumed" reported by the telemetry gauge ``rng.draws``
        #: (numpy generators do not expose a portable draw count).
        self.draws = 0

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The stream's seed entropy combines the root seed and a stable hash
        of the name, so the same (seed, name) pair always yields the same
        stream regardless of creation order.
        """
        self.draws += 1
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_stable_stream_key(name),)
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """Return an indexed sub-stream, e.g. one per repetition."""
        return self.get(f"{name}/{index}")

    def __len__(self) -> int:
        return len(self._streams)
