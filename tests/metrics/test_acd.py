"""Tests for the ACD metric itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fmm import CommunicationEvents
from repro.fmm.events import PairHistogram
from repro.metrics import ACDResult, acd_breakdown, compute_acd
from repro.topology import make_topology


def events_of(pairs):
    ev = CommunicationEvents()
    if pairs:
        arr = np.asarray(pairs)
        ev.add(arr[:, 0], arr[:, 1])
    return ev


class TestACDResult:
    def test_mean(self):
        assert ACDResult(10, 4).acd == 2.5

    def test_empty_is_zero(self):
        assert ACDResult(0, 0).acd == 0.0

    def test_merged(self):
        merged = ACDResult(10, 4).merged(ACDResult(2, 2))
        assert merged.total_distance == 12 and merged.count == 6


class TestComputeACD:
    def test_hand_computed_bus(self):
        bus = make_topology("bus", 8)
        result = compute_acd(events_of([(0, 7), (1, 1), (2, 4)]), bus)
        assert result.total_distance == 7 + 0 + 2
        assert result.count == 3
        assert result.acd == 3.0

    def test_streams_over_chunks(self):
        bus = make_topology("bus", 8)
        ev = CommunicationEvents()
        ev.add([0], [7])
        ev.add([1], [2])
        result = compute_acd(ev, bus)
        assert result.total_distance == 8 and result.count == 2

    def test_empty_events(self):
        result = compute_acd(CommunicationEvents(), make_topology("ring", 8))
        assert result.count == 0 and result.acd == 0.0

    def test_rank_out_of_range_raises(self):
        bus = make_topology("bus", 4)
        with pytest.raises(ValueError):
            compute_acd(events_of([(0, 4)]), bus)

    @pytest.mark.parametrize("topo", ["bus", "ring", "mesh", "torus", "quadtree", "hypercube"])
    def test_self_communication_is_free(self, topo):
        net = make_topology(topo, 16)
        ranks = np.arange(16)
        ev = CommunicationEvents()
        ev.add(ranks, ranks)
        assert compute_acd(ev, net).acd == 0.0


class TestBreakdown:
    def test_combined_is_pooled_mean(self):
        bus = make_topology("bus", 16)
        phases = {
            "a": events_of([(0, 4)]),  # distance 4
            "b": events_of([(0, 1), (1, 2)]),  # distances 1, 1
        }
        out = acd_breakdown(phases, bus)
        assert out["a"].acd == 4.0
        assert out["b"].acd == 1.0
        assert out["combined"].acd == pytest.approx(6 / 3)

    def test_keys(self):
        out = acd_breakdown({"only": events_of([(0, 1)])}, make_topology("bus", 4))
        assert set(out) == {"only", "combined"}

    def test_reserved_phase_name_rejected(self):
        """A user phase named "combined" must not be silently overwritten."""
        from repro.errors import ConfigurationError

        phases = {"combined": events_of([(0, 1)]), "other": events_of([(1, 2)])}
        with pytest.raises(ConfigurationError, match="combined"):
            acd_breakdown(phases, make_topology("bus", 4))


def histogram_of(src, dst, weights, p):
    """A hand-built histogram (bypasses compact's validation)."""
    return PairHistogram(
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.int64),
        num_processors=p,
        num_events=len(src),
    )


FORMS = ("histogram", "streamed")


def as_form(form, src, dst, weights, p):
    """The same weighted multiset as a histogram or as streamed events."""
    if form == "histogram":
        return histogram_of(src, dst, weights, p)
    ev = CommunicationEvents()
    ev.add(src, dst, weights)
    return ev


class TestIntegerAccumulation:
    @pytest.mark.parametrize("form", FORMS)
    def test_large_weights_accumulate_in_int64(self, form):
        """Sums past 2**53 stay exact: no float rounding on either form."""
        bus = make_topology("bus", 8)
        big = 2**55 + 1
        result = compute_acd(as_form(form, [0, 1], [7, 2], [big, 3], 8), bus)
        assert result.total_distance == 7 * big + 3 * 1
        assert result.count == big + 3
        assert isinstance(result.total_distance, int)


class TestRankValidation:
    """The histogram and streamed forms reject bad ranks identically."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("bad_rank", [-1, 16, 1000])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_bad_rank_raises(self, form, bad_rank, side):
        net = make_topology("torus", 16)
        src, dst = ([0, bad_rank], [1, 2]) if side == "src" else ([0, 3], [1, bad_rank])
        with pytest.raises(ValueError, match=f"rank {bad_rank} outside"):
            compute_acd(as_form(form, src, dst, [1, 1], 16), net)

    @pytest.mark.parametrize("bad_rank", [-1, 16, 1000])
    def test_histogram_and_streamed_errors_match(self, bad_rank):
        net = make_topology("torus", 16)
        messages = []
        for form in FORMS:
            with pytest.raises(ValueError) as err:
                compute_acd(as_form(form, [3], [bad_rank], [1], 16), net)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @staticmethod
    def _warm(net):
        """Evaluate every rank pair once so any per-network state is built."""
        ranks = np.arange(net.num_processors)
        assert compute_acd(events_of(list(zip(ranks, ranks[::-1]))), net).count == len(ranks)

    @pytest.mark.parametrize("bad_rank", [-1, 16, 1000])
    def test_streaming_rejects_bad_ranks_with_warm_cache(self, bad_rank):
        net = make_topology("torus", 16)
        self._warm(net)
        with pytest.raises(ValueError, match=f"rank {bad_rank} outside"):
            compute_acd(events_of([(3, bad_rank)]), net)

    def test_negative_ranks_no_longer_wrap_through_the_matrix(self):
        # Rank -1 must not index the last processor after a prior query.
        net = make_topology("ring", 8)
        self._warm(net)
        with pytest.raises(ValueError, match="rank -1"):
            compute_acd(events_of([(0, -1)]), net)
