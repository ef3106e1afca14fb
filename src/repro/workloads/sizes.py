"""Call-size distributions, most importantly for memcpy (Figure 14).

The paper's profiling shows memcpy call sizes are dominated by small
copies with a long tail of large ones (Figure 14), and that regressing
workloads have ~26% larger average copies. We model this with a mixture of
log-normal components: a bulk of small copies around tens of bytes, a
medium mode around a few hundred bytes, and a sparse heavy tail into the
megabytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.summation import left_sum


@dataclass(frozen=True)
class _Component:
    weight: float
    mu: float      # log-space mean
    sigma: float   # log-space stddev


class MemcpySizeDistribution:
    """A mixture-of-log-normals over copy sizes in bytes.

    The default parameters reproduce the qualitative shape of Figure 14:
    the PDF mass sits below a few hundred bytes, with a tail reaching
    beyond 100 KiB.

    Args:
        scale: Multiplies every sampled size. The paper observes that
            workloads which regress under prefetcher ablation have ~26%
            larger copies; model those with ``scale=1.26``.
        min_bytes / max_bytes: Clamp bounds for samples.
    """

    #: Mixture fitted to the qualitative Figure 14 shape.
    DEFAULT_COMPONENTS = (
        _Component(weight=0.55, mu=math.log(32.0), sigma=0.8),
        _Component(weight=0.35, mu=math.log(256.0), sigma=1.0),
        _Component(weight=0.10, mu=math.log(16_384.0), sigma=1.6),
    )

    def __init__(self, components: Sequence[_Component] = DEFAULT_COMPONENTS,
                 scale: float = 1.0, min_bytes: int = 1,
                 max_bytes: int = 8 * 1024 * 1024) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if min_bytes < 1 or max_bytes < min_bytes:
            raise ValueError("need 1 <= min_bytes <= max_bytes")
        total_weight = left_sum(c.weight for c in components)
        if not components or total_weight <= 0:
            raise ValueError("components must have positive total weight")
        self._components = tuple(components)
        self._cumulative: List[float] = []
        acc = 0.0
        for component in self._components:
            acc += component.weight / total_weight
            self._cumulative.append(acc)
        self._scale = scale
        self._min = min_bytes
        self._max = max_bytes

    def sample(self, rng: random.Random) -> int:
        """Draw one call size in bytes."""
        pick = rng.random()
        component = self._components[-1]
        for cum, candidate in zip(self._cumulative, self._components):
            if pick <= cum:
                component = candidate
                break
        size = self._scale * rng.lognormvariate(component.mu, component.sigma)
        return max(self._min, min(self._max, int(round(size))))

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` call sizes."""
        return [self.sample(rng) for _ in range(count)]

    def mean_of(self, rng: random.Random, count: int = 10_000) -> float:
        """Empirical mean of ``count`` samples (distribution has no cheap
        closed form once clamped)."""
        samples = self.sample_many(rng, count)
        return sum(samples) / len(samples)

    def scaled(self, factor: float) -> "MemcpySizeDistribution":
        """A copy with all sizes multiplied by ``factor``."""
        return MemcpySizeDistribution(
            self._components, scale=self._scale * factor,
            min_bytes=self._min, max_bytes=self._max)


def size_histogram(samples: Sequence[int],
                   bin_edges: Sequence[int]) -> List[Tuple[int, float]]:
    """Empirical PDF over log-spaced bins, as plotted in Figure 14.

    Returns ``(bin_upper_edge, fraction)`` pairs; fractions sum to 1 for
    samples within range.
    """
    if not samples:
        raise ValueError("need at least one sample")
    if list(bin_edges) != sorted(bin_edges):
        raise ValueError("bin edges must be sorted")
    counts = [0] * len(bin_edges)
    total = 0
    for sample in samples:
        for index, edge in enumerate(bin_edges):
            if sample <= edge:
                counts[index] += 1
                total += 1
                break
    if total == 0:
        return [(edge, 0.0) for edge in bin_edges]
    return [(edge, count / total) for edge, count in zip(bin_edges, counts)]
