"""Three-dimensional particle sets and distributions (extension).

The 3D counterparts of :mod:`repro.distributions.base` for the paper's
future-work item (ii): uniform, centred-normal and origin-skewed
exponential laws on a ``2**k`` cube lattice, with the same at-most-one-
particle-per-cell occupancy discipline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro._typing import IntArray, SeedLike
from repro.errors import SamplingError
from repro.util.bits import MAX_BITS_3D
from repro.util.registry import Registry
from repro.util.rng import as_generator
from repro.util.sets import sorted_unique
from repro.util.validation import check_in_range, check_nonnegative, check_order

__all__ = [
    "Particles3D",
    "ParticleDistribution3D",
    "Uniform3D",
    "Normal3D",
    "Exponential3D",
    "DISTRIBUTIONS3D",
    "get_distribution3d",
]


@dataclass(frozen=True)
class Particles3D:
    """A set of particles on distinct cells of a ``2**order`` cube lattice."""

    x: IntArray
    y: IntArray
    z: IntArray
    order: int

    def __post_init__(self):
        k = check_order(self.order, max_order=MAX_BITS_3D)
        side = 1 << k
        object.__setattr__(self, "x", check_in_range(self.x, 0, side, "x"))
        object.__setattr__(self, "y", check_in_range(self.y, 0, side, "y"))
        object.__setattr__(self, "z", check_in_range(self.z, 0, side, "z"))
        if not (self.x.shape == self.y.shape == self.z.shape) or self.x.ndim != 1:
            raise ValueError("x, y and z must be equal-length 1D arrays")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def side(self) -> int:
        """Lattice side length ``2**order``."""
        return 1 << self.order

    def cell_codes(self) -> IntArray:
        """Lexicographic cell ids (unique per particle)."""
        side = np.int64(self.side)
        return (self.x * side + self.y) * side + self.z

    def validate_distinct(self) -> None:
        """Raise if two particles share a cell (model invariant)."""
        codes = self.cell_codes()
        if sorted_unique(codes).size != codes.size:
            raise ValueError("particles must occupy distinct cells")


class ParticleDistribution3D(abc.ABC):
    """A 3D probability law from which particle positions are drawn."""

    name: str = ""

    @abc.abstractmethod
    def _sample_batch(
        self, m: int, side: int, rng: np.random.Generator
    ) -> tuple[IntArray, IntArray, IntArray]:
        """Draw ``m`` candidate cells (possibly with repeats/rejects)."""

    def sample(
        self, n: int, order: int, rng: SeedLike = None, *, max_batches: int = 64
    ) -> Particles3D:
        """Draw ``n`` particles on distinct cells of a ``2**order`` cube."""
        n = check_nonnegative(n, "n")
        k = check_order(order, max_order=MAX_BITS_3D)
        side = 1 << k
        if n > side**3:
            raise SamplingError(
                f"cannot place {n} distinct particles on a {side}^3 lattice"
            )
        gen = as_generator(rng)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return Particles3D(empty, empty.copy(), empty.copy(), k)
        seen: IntArray = np.empty(0, dtype=np.int64)
        batch = max(2 * n, 1024)
        s64 = np.int64(side)
        for _ in range(max_batches):
            bx, by, bz = self._sample_batch(batch, side, gen)
            codes = (bx * s64 + by) * s64 + bz
            seen = sorted_unique(np.concatenate([seen, codes]))
            if seen.size >= n:
                chosen = gen.choice(seen, size=n, replace=False)
                return Particles3D(
                    chosen // (s64 * s64), (chosen // s64) % s64, chosen % s64, k
                )
            batch *= 2
        raise SamplingError(
            f"{type(self).__name__} produced only {seen.size} distinct cells "
            f"after {max_batches} batches (requested {n})"
        )


class Uniform3D(ParticleDistribution3D):
    """Uniformly random occupied cells."""

    name = "uniform3d"

    def _sample_batch(self, m, side, rng):
        return (
            rng.integers(0, side, size=m, dtype=np.int64),
            rng.integers(0, side, size=m, dtype=np.int64),
            rng.integers(0, side, size=m, dtype=np.int64),
        )


class Normal3D(ParticleDistribution3D):
    """Symmetric trivariate normal centred on the cube midpoint."""

    name = "normal3d"

    def __init__(self, sigma_fraction: float = 1 / 8):
        if not 0 < sigma_fraction:
            raise ValueError(f"sigma_fraction must be positive, got {sigma_fraction}")
        self.sigma_fraction = float(sigma_fraction)

    def _sample_batch(self, m, side, rng):
        centre = (side - 1) / 2.0
        sigma = side * self.sigma_fraction
        coords = [
            np.rint(rng.normal(centre, sigma, size=m)).astype(np.int64)
            for _ in range(3)
        ]
        keep = np.ones(m, dtype=bool)
        for c in coords:
            keep &= (c >= 0) & (c < side)
        return coords[0][keep], coords[1][keep], coords[2][keep]


class Exponential3D(ParticleDistribution3D):
    """Independent exponential coordinates, skewed toward the origin corner."""

    name = "exponential3d"

    def __init__(self, scale_fraction: float = 1 / 4):
        if not 0 < scale_fraction:
            raise ValueError(f"scale_fraction must be positive, got {scale_fraction}")
        self.scale_fraction = float(scale_fraction)

    def _sample_batch(self, m, side, rng):
        scale = side * self.scale_fraction
        coords = [
            np.floor(rng.exponential(scale, size=m)).astype(np.int64) for _ in range(3)
        ]
        keep = np.ones(m, dtype=bool)
        for c in coords:
            keep &= c < side
        return coords[0][keep], coords[1][keep], coords[2][keep]


DISTRIBUTIONS3D: Registry[ParticleDistribution3D] = Registry("3D distribution")
DISTRIBUTIONS3D.register("uniform3d", Uniform3D, aliases=("uniform",))
DISTRIBUTIONS3D.register("normal3d", Normal3D, aliases=("normal", "gaussian"))
DISTRIBUTIONS3D.register("exponential3d", Exponential3D, aliases=("exponential", "exp"))


def get_distribution3d(name: str, **kwargs) -> ParticleDistribution3D:
    """Instantiate the 3D distribution registered under ``name``."""
    return DISTRIBUTIONS3D.create(name, **kwargs)
