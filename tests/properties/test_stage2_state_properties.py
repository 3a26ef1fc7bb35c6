"""Invariants of Stage-2's incremental working state under random swaps, and
equivalence of its vectorised gain and pick steps with brute-force oracles."""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, NMPattern
from repro.core.stage2 import _freshtop, _WorkingState


@st.composite
def state_and_swaps(draw):
    n = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m = draw(st.sampled_from([4, 8]))
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.25)
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    bm = BitMatrix.from_dense(a)
    pattern = NMPattern(2, m)
    n_segs = (n + m - 1) // m
    n_swaps = draw(st.integers(min_value=0, max_value=8))
    swaps = []
    for _ in range(n_swaps):
        p = draw(st.integers(0, n_segs - 1))
        t = draw(st.integers(0, n_segs - 1))
        if p == t:
            continue
        # stay within real (non-padding) columns
        u = draw(st.integers(0, max(min(m, n - p * m) - 1, 0)))
        v = draw(st.integers(0, max(min(m, n - t * m) - 1, 0)))
        swaps.append((p, u, t, v))
    return bm, pattern, swaps


class TestWorkingStateInvariants:
    @settings(max_examples=60, deadline=None)
    @given(state_and_swaps())
    def test_counts_match_packed_values(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        assert np.array_equal(
            state.counts_t, np.bitwise_count(state._seg_vals_t).astype(np.int16)
        )

    @settings(max_examples=60, deadline=None)
    @given(state_and_swaps())
    def test_seg_nnz_matches_counts(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        assert np.array_equal(state.seg_nnz, state.counts_t.sum(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(state_and_swaps())
    def test_total_nnz_preserved(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        before = int(state.counts_t.sum())
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        assert int(state.counts_t.sum()) == before

    @settings(max_examples=40, deadline=None)
    @given(state_and_swaps())
    def test_swap_is_involution(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        snapshot = state._seg_vals_t.copy()
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
            state.apply_swap(p, u, t, v)
        assert np.array_equal(state._seg_vals_t, snapshot)


def _freshtop_loop(gp, gt, ge, p, t, m, used, valid_p, valid_t, require_positive_gain):
    """The scalar ``freshtop``: scan all fresh pairs row-major, keep the first
    strictly greater ``(PScore gain, excess gain)`` key, then apply the
    acceptance rule.  Oracle for the vectorised pick."""
    best = None
    best_key = None
    for u in range(valid_p):
        if p * m + u in used:
            continue
        for v in range(valid_t):
            if t * m + v in used:
                continue
            key = (int(gp[u, v]) + int(gt[u, v]), int(ge[u, v]))
            if best_key is None or key > best_key:
                best_key = key
                best = (u, v, int(gp[u, v]), int(gt[u, v]))
    if best is None or best_key is None:
        return None
    if require_positive_gain:
        if best_key[0] <= 0:
            return None
    elif best_key[0] < 0 or best_key == (0, 0) or (best_key[0] == 0 and best_key[1] < 0):
        return None
    return best


@st.composite
def freshtop_case(draw):
    m = draw(st.sampled_from([4, 8, 16, 32]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # A narrow value range makes ties on both keys the common case.
    lo, hi = draw(st.sampled_from([(-1, 1), (-2, 2), (0, 1), (-3, 3)]))
    gp, gt, ge = (rng.integers(lo, hi + 1, size=(m, m)).astype(np.int64) for _ in range(3))
    valid_p = draw(st.integers(1, m))
    valid_t = draw(st.integers(1, m))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    used_p = rng.random(valid_p) < density
    used_t = rng.random(valid_t) < density
    return gp, gt, ge, m, used_p, used_t, draw(st.booleans())


class TestVectorisedGainSteps:
    @settings(max_examples=300, deadline=None)
    @given(freshtop_case())
    def test_freshtop_matches_scalar_scan(self, case):
        gp, gt, ge, m, used_p, used_t, require_positive_gain = case
        p, t = 3, 1
        used = {p * m + u for u in np.flatnonzero(used_p)}
        used |= {t * m + v for v in np.flatnonzero(used_t)}
        expect = _freshtop_loop(
            gp, gt, ge, p, t, m, used, used_p.size, used_t.size, require_positive_gain)
        got = _freshtop(gp, gt, ge, ~used_p, ~used_t, require_positive_gain)
        assert got == expect

    @settings(max_examples=40, deadline=None)
    @given(state_and_swaps(), st.data())
    def test_pair_gains_match_brute_force_recount(self, case, data):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        if state.n_segs < 2:
            return
        p = data.draw(st.integers(0, state.n_segs - 1))
        t = data.draw(st.integers(0, state.n_segs - 2))
        t += t >= p
        gp, gt, ge = state.pair_gains(p, t)
        n = state.n

        def measure(s):
            cp, ct = s.counts_t[p].astype(np.int64), s.counts_t[t].astype(np.int64)
            excess = np.maximum(cp - n, 0).sum() + np.maximum(ct - n, 0).sum()
            return int((cp > n).sum()), int((ct > n).sum()), int(excess)

        ps0, pt0, ex0 = measure(state)
        for u in range(state.valid_locals(p)):
            for v in range(state.valid_locals(t)):
                trial = copy.deepcopy(state)
                trial.apply_swap(p, u, t, v)
                ps1, pt1, ex1 = measure(trial)
                assert (gp[u, v], gt[u, v], ge[u, v]) == (ps0 - ps1, pt0 - pt1, ex0 - ex1), (u, v)
