"""Sort-based set operations on integer arrays.

On NumPy 2.x ``np.unique`` hashes before it sorts; one ``np.sort`` plus
an adjacent-difference mask gives the same sorted result many times faster.
"""

import numpy as np

__all__ = ["run_starts", "sorted_unique"]


def run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Index where each run of equal values begins in a sorted 1D array."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return np.flatnonzero(first)


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of ``values`` (flattened), as ``np.unique``."""
    ordered = np.sort(values, axis=None)
    return ordered[run_starts(ordered)]
