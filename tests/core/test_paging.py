"""Tests for repro.core.paging: policies and the Paging allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import Request
from repro.core.curves import get_curve
from repro.core.paging import (
    PagingAllocator,
    free_runs,
    select_best_fit,
    select_first_fit,
    select_freelist,
    select_min_span,
    select_sum_of_squares,
)
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh


class TestFreeRuns:
    def test_empty(self):
        assert free_runs(np.array([], dtype=np.int64)) == []

    def test_single_run(self):
        assert free_runs(np.array([3, 4, 5])) == [(0, 3)]

    def test_multiple_runs(self):
        runs = free_runs(np.array([0, 1, 5, 6, 7, 10]))
        assert runs == [(0, 2), (2, 3), (5, 1)]

    def test_all_isolated(self):
        runs = free_runs(np.array([0, 2, 4, 6]))
        assert runs == [(0, 1), (1, 1), (2, 1), (3, 1)]


class TestPolicies:
    """free ranks: [0,1,2] [10,11,12,13,14] [20,21] -- runs of 3, 5, 2."""

    FREE = np.array([0, 1, 2, 10, 11, 12, 13, 14, 20, 21])

    def test_freelist_takes_prefix(self):
        assert select_freelist(self.FREE, 4).tolist() == [0, 1, 2, 10]

    def test_first_fit_takes_first_big_enough(self):
        # need 2: first run (size 3) fits.
        assert select_first_fit(self.FREE, 2).tolist() == [0, 1]
        # need 4: only the 5-run fits.
        assert select_first_fit(self.FREE, 4).tolist() == [10, 11, 12, 13]

    def test_best_fit_minimises_leftover(self):
        # need 2: the 2-run is exact (leftover 0).
        assert select_best_fit(self.FREE, 2).tolist() == [20, 21]
        # need 3: the 3-run is exact.
        assert select_best_fit(self.FREE, 3).tolist() == [0, 1, 2]
        # need 5: only the 5-run.
        assert select_best_fit(self.FREE, 5).tolist() == [10, 11, 12, 13, 14]

    def test_best_fit_tie_goes_to_first(self):
        free = np.array([0, 1, 10, 11])
        assert select_best_fit(free, 2).tolist() == [0, 1]

    def test_min_span_fallback(self):
        # need 6 > all runs: window of 6 with smallest span.
        # windows: [0..12] span 12, [1..13] span 12, [2..14] span 12,
        #          [10..20] span 10, [11..21] span 10 -> first: [10..20].
        assert select_min_span(self.FREE, 6).tolist() == [10, 11, 12, 13, 14, 20]

    def test_first_and_best_fall_back_to_min_span(self):
        got_ff = select_first_fit(self.FREE, 6)
        got_bf = select_best_fit(self.FREE, 6)
        expected = select_min_span(self.FREE, 6)
        assert got_ff.tolist() == expected.tolist()
        assert got_bf.tolist() == expected.tolist()

    def test_sum_of_squares_prefers_exact(self):
        # need 2: taking the 2-run leaves runs {3,5}: score 1+1=2 -- best.
        assert select_sum_of_squares(self.FREE, 2).tolist() == [20, 21]

    def test_sum_of_squares_avoids_duplicate_sizes(self):
        # runs of sizes 3 and 4; need 1.
        # take from 3-run -> {2,4}: score 2; take from 4-run -> {3,3}:
        # census {3:2} -> score 4.  SS picks the 3-run.
        free = np.array([0, 1, 2, 10, 11, 12, 13])
        assert select_sum_of_squares(free, 1).tolist() == [0]

    @given(
        ranks=st.lists(st.integers(0, 100), min_size=1, max_size=40, unique=True),
        need_frac=st.floats(0.1, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_policies_return_valid_subsets(self, ranks, need_frac):
        free = np.array(sorted(ranks), dtype=np.int64)
        need = max(1, int(len(free) * need_frac))
        for select in (
            select_freelist,
            select_first_fit,
            select_best_fit,
            select_sum_of_squares,
            select_min_span,
        ):
            got = select(free, need)
            assert len(got) == need
            assert len(set(got.tolist())) == need
            assert set(got.tolist()) <= set(free.tolist())

    @given(
        ranks=st.lists(st.integers(0, 60), min_size=2, max_size=30, unique=True),
        need_frac=st.floats(0.1, 0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_min_span_is_optimal(self, ranks, need_frac):
        free = np.array(sorted(ranks), dtype=np.int64)
        need = max(1, int(len(free) * need_frac))
        got = select_min_span(free, need)
        got_span = got.max() - got.min()
        # brute force: every k-subset of consecutive sorted entries
        best = min(
            free[i + need - 1] - free[i] for i in range(len(free) - need + 1)
        )
        assert got_span == best


class TestPagingAllocator:
    def test_name_composition(self):
        assert PagingAllocator("hilbert", "best-fit").name == "hilbert+bf"
        assert PagingAllocator("s-curve", "freelist").name == "s-curve"
        assert PagingAllocator("hilbert", "bf", page_size=1).name.endswith("@s1")

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            PagingAllocator("hilbert", "worst-fit")

    def test_empty_machine_allocates_curve_prefix(self, machine8, mesh8):
        alloc = PagingAllocator("hilbert", "freelist")
        a = alloc.allocate(Request(size=10, job_id=1), machine8)
        curve = get_curve("hilbert", mesh8)
        assert a.nodes.tolist() == curve.order[:10].tolist()

    def test_returns_none_when_too_few_free(self, machine8):
        machine8.allocate(range(60), job_id=9)
        alloc = PagingAllocator("hilbert", "best-fit")
        assert alloc.allocate(Request(size=5, job_id=1), machine8) is None

    def test_exact_fill(self, machine8):
        alloc = PagingAllocator("s-curve", "best-fit")
        a = alloc.allocate(Request(size=64, job_id=1), machine8)
        assert sorted(a.nodes.tolist()) == list(range(64))

    def test_nodes_in_curve_order(self, machine16, mesh16):
        alloc = PagingAllocator("hilbert", "best-fit")
        a = alloc.allocate(Request(size=30, job_id=1), machine16)
        curve = get_curve("hilbert", mesh16)
        ranks = curve.rank[a.nodes]
        assert np.all(np.diff(ranks) > 0)

    def test_best_fit_prefers_snug_hole(self, mesh8):
        """Carve a size-3 hole and a size-10 hole; BF picks the snug one."""
        machine = Machine(mesh8)
        curve = get_curve("hilbert", mesh8)
        # occupy everything except curve ranks 5..7 (hole A) and 20..29 (B)
        holes = set(range(5, 8)) | set(range(20, 30))
        busy = [int(curve.order[r]) for r in range(64) if r not in holes]
        machine.allocate(busy, job_id=9)
        bf = PagingAllocator("hilbert", "best-fit")
        a = bf.allocate(Request(size=3, job_id=1), machine)
        assert sorted(curve.rank[a.nodes].tolist()) == [5, 6, 7]
        ff = PagingAllocator("hilbert", "first-fit")
        b = ff.allocate(Request(size=3, job_id=1), machine)
        assert sorted(curve.rank[b.nodes].tolist()) == [5, 6, 7]
        fl = PagingAllocator("hilbert", "freelist")
        c = fl.allocate(Request(size=4, job_id=1), machine)
        # freelist ignores runs: first 4 free ranks are 5,6,7,20
        assert sorted(curve.rank[c.nodes].tolist()) == [5, 6, 7, 20]

    def test_does_not_mutate_machine(self, machine8):
        before = machine8.snapshot()
        PagingAllocator("hilbert", "best-fit").allocate(
            Request(size=7, job_id=1), machine8
        )
        assert np.array_equal(machine8.snapshot(), before)

    @given(
        name=st.sampled_from(["s-curve", "hilbert", "h-indexing", "row-major"]),
        policy=st.sampled_from(["freelist", "ff", "bf", "ss"]),
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_valid_allocations_under_churn(self, name, policy, sizes):
        """Allocate a stream of jobs, freeing every other one."""
        mesh = Mesh(8, 8)
        machine = Machine(mesh)
        alloc = PagingAllocator(name, policy)
        live = []
        for i, k in enumerate(sizes):
            a = alloc.allocate(Request(size=k, job_id=i), machine)
            if a is None:
                assert machine.n_free < k
                continue
            assert len(a.nodes) == k
            assert all(machine.is_free(int(n)) for n in a.nodes)
            machine.allocate(a.held, job_id=i)
            live.append(a)
            if i % 2 == 1 and live:
                done = live.pop(0)
                machine.release(done.held)


class TestPagingPages:
    """Page size s > 0 (extension; the paper's fragmentation discussion)."""

    def test_page_allocation_holds_whole_pages(self):
        mesh = Mesh(8, 8)
        machine = Machine(mesh)
        alloc = PagingAllocator("hilbert", "freelist", page_size=1)
        a = alloc.allocate(Request(size=5, job_id=1), machine)
        # 5 procs -> 2 pages of 4 -> 8 held, 3 fragmented.
        assert len(a.nodes) == 5
        assert len(a.held) == 8
        assert a.fragmentation == 3

    def test_page_fragmentation_can_block(self):
        """Enough free processors but no fully-free page -> None."""
        mesh = Mesh(4, 4)
        machine = Machine(mesh)
        # Occupy one node in each 2x2 page.
        for px in range(2):
            for py in range(2):
                machine.allocate([mesh.node_id(2 * px, 2 * py)], job_id=9)
        alloc = PagingAllocator("s-curve", "freelist", page_size=1)
        assert machine.n_free == 12
        assert alloc.allocate(Request(size=4, job_id=1), machine) is None

    def test_indivisible_mesh_rejected(self):
        mesh = Mesh(6, 6)
        machine = Machine(mesh)
        alloc = PagingAllocator("s-curve", "freelist", page_size=2)
        with pytest.raises(ValueError):
            alloc.allocate(Request(size=4, job_id=1), machine)

    def test_negative_page_size_rejected(self):
        with pytest.raises(ValueError):
            PagingAllocator("hilbert", "bf", page_size=-1)
