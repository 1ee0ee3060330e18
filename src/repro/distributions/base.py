"""Particle sets and the distribution interface.

§II-C of the paper populates problems by drawing particles from a
probability distribution over a ``2**k`` square lattice, under the FMM
model's assumption that "a cell at the finest resolution may contain at
most one particle" (§III).  Distributions therefore perform batch
*rejection resampling*: candidate cells are drawn from the underlying
continuous law until ``n`` distinct lattice cells are occupied.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.errors import SamplingError
from repro.util.rng import as_generator
from repro.util.sets import sorted_unique
from repro.util.validation import as_index_array, check_nonnegative, check_order

__all__ = ["Particles", "ParticleDistribution"]


def _check_on_lattice(arr, side: int, order: int, name: str) -> IntArray:
    """Validate lattice coordinates with a bounds message naming the fix.

    Out-of-lattice coordinates would silently produce garbage curve keys
    (the encoders mask to ``order`` bits), so they are rejected here at
    construction.  Positions produced by motion must be folded in-bounds
    first — :func:`repro.dynamics.boundary.reflect_positions` is the
    documented mechanism.
    """
    a = as_index_array(arr, name)
    if a.size:
        mn, mx = int(a.min()), int(a.max())
        if mn < 0 or mx >= side:
            raise ValueError(
                f"{name} coordinates must lie on the order-{order} lattice "
                f"[0, {side}), got range [{mn}, {mx}]; fold moving particles "
                "in-bounds first (repro.dynamics.boundary.reflect_positions)"
            )
    return a


@dataclass(frozen=True)
class Particles:
    """A set of particles on distinct cells of a ``2**order`` lattice.

    Attributes
    ----------
    x, y:
        Cell coordinates, one entry per particle (all pairs distinct).
    order:
        Lattice order ``k`` (side ``2**k``).
    """

    x: IntArray
    y: IntArray
    order: int

    def __post_init__(self):
        k = check_order(self.order)
        side = 1 << k
        object.__setattr__(self, "x", _check_on_lattice(self.x, side, k, "x"))
        object.__setattr__(self, "y", _check_on_lattice(self.y, side, k, "y"))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be equal-length 1D arrays")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def side(self) -> int:
        """Lattice side length ``2**order``."""
        return 1 << self.order

    def cell_codes(self) -> IntArray:
        """Row-major cell ids ``x * side + y`` (unique per particle)."""
        return self.x * np.int64(self.side) + self.y

    def validate_distinct(self) -> None:
        """Raise if two particles share a cell (model invariant)."""
        codes = self.cell_codes()
        if sorted_unique(codes).size != codes.size:
            raise ValueError("particles must occupy distinct cells")


class ParticleDistribution(abc.ABC):
    """A 2D probability law from which particle positions are drawn."""

    #: Registry name of the distribution; set by subclasses.
    name: str = ""

    @abc.abstractmethod
    def _sample_batch(
        self, m: int, side: int, rng: np.random.Generator
    ) -> tuple[IntArray, IntArray]:
        """Draw ``m`` candidate cells (possibly with repeats/rejects)."""

    def sample(
        self,
        n: int,
        order: int,
        rng: SeedLike = None,
        *,
        max_batches: int = 64,
    ) -> Particles:
        """Draw ``n`` particles on distinct cells of a ``2**order`` lattice.

        Candidates are drawn in batches and deduplicated until ``n``
        distinct occupied cells are accumulated.  Raises
        :class:`~repro.errors.SamplingError` if ``max_batches`` rounds
        cannot reach ``n`` distinct cells, which signals that the law is
        too concentrated for the requested density.
        """
        n = check_nonnegative(n, "n")
        k = check_order(order)
        side = 1 << k
        if n > side * side:
            raise SamplingError(
                f"cannot place {n} distinct particles on a {side}x{side} lattice"
            )
        gen = as_generator(rng)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return Particles(empty, empty.copy(), k)

        seen: IntArray = np.empty(0, dtype=np.int64)
        batch = max(2 * n, 1024)
        for _ in range(max_batches):
            bx, by = self._sample_batch(batch, side, gen)
            codes = bx * np.int64(side) + by
            seen = sorted_unique(np.concatenate([seen, codes]))
            if seen.size >= n:
                chosen = gen.choice(seen, size=n, replace=False)
                return Particles(chosen // side, chosen % side, k)
            batch *= 2
        raise SamplingError(
            f"{type(self).__name__} produced only {seen.size} distinct cells "
            f"after {max_batches} batches (requested {n})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
