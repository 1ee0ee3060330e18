"""Tests for the CommunicationEvents container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fmm import CommunicationEvents


class TestCommunicationEvents:
    def test_empty(self):
        ev = CommunicationEvents()
        assert len(ev) == 0
        src, dst = ev.pairs()
        assert src.size == 0 and dst.size == 0
        assert ev.max_rank() == -1

    def test_add_and_count(self):
        ev = CommunicationEvents()
        ev.add([0, 1], [2, 3])
        ev.add([4], [5])
        assert len(ev) == 3
        src, dst = ev.pairs()
        assert src.tolist() == [0, 1, 4]
        assert dst.tolist() == [2, 3, 5]

    def test_add_scalars(self):
        ev = CommunicationEvents()
        ev.add(3, 7)
        assert len(ev) == 1

    def test_empty_chunk_ignored(self):
        ev = CommunicationEvents()
        ev.add(np.empty(0, dtype=int), np.empty(0, dtype=int))
        assert len(ev) == 0 and not list(ev.iter_chunks())

    def test_mismatched_lengths_rejected(self):
        ev = CommunicationEvents()
        with pytest.raises(ValueError):
            ev.add([0, 1], [2])

    def test_reversed(self):
        ev = CommunicationEvents(component="x")
        ev.add([0, 1], [2, 3])
        rev = ev.reversed()
        src, dst = rev.pairs()
        assert src.tolist() == [2, 3]
        assert dst.tolist() == [0, 1]
        assert rev.component == "x"
        assert len(ev) == 2  # original untouched

    def test_max_rank(self):
        ev = CommunicationEvents()
        ev.add([0, 9], [2, 3])
        assert ev.max_rank() == 9

    def test_iter_chunks_no_copy(self):
        ev = CommunicationEvents()
        src = np.array([1, 2])
        ev.add(src, np.array([3, 4]))
        chunk_src, _ = next(iter(ev.iter_chunks()))
        assert chunk_src is not None and chunk_src.tolist() == [1, 2]
