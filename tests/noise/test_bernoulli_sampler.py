"""The two Bernoulli position samplers: contract and agreement.

``_bernoulli_positions`` has a sparse regime (geometric gap jumping)
and a dense regime (direct thresholded uniforms) behind one contract:
sorted, duplicate-free int64 indices in ``[0, trials)``.  Both regimes
are exercised explicitly via the ``dense`` override, and a two-sided
statistical test checks they draw from the same fault-count
distribution (mean AND variance — a z-test on the pooled success count
plus a variance-ratio bound across repetitions).  The stream contract
of the chunked sampler, ``_bernoulli_position_chunks``, is pinned
against a copy of the whole-batch sampler it replaced: the same
positions and the same generator state afterwards, whatever the chunk
size, including crossings on a chunk's last site and several refills.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.noise.monte_carlo as monte_carlo
from repro.noise.monte_carlo import (
    DENSE_PROBABILITY,
    _bernoulli_position_chunks,
    _bernoulli_positions,
)


@pytest.mark.parametrize("dense", [False, True])
class TestContract:
    def test_sorted_unique_in_range(self, dense):
        rng = np.random.default_rng(3)
        for probability in (0.001, 0.01, 0.05, 0.3):
            positions = _bernoulli_positions(rng, probability, 5000, dense=dense)
            assert positions.dtype == np.int64
            assert (np.diff(positions) > 0).all()  # sorted, no duplicates
            if positions.size:
                assert 0 <= positions[0] and positions[-1] < 5000

    def test_edge_cases(self, dense):
        rng = np.random.default_rng(4)
        assert _bernoulli_positions(rng, 0.5, 0, dense=dense).size == 0
        assert _bernoulli_positions(rng, 0.0, 100, dense=dense).size == 0
        assert _bernoulli_positions(rng, -1.0, 100, dense=dense).size == 0
        np.testing.assert_array_equal(
            _bernoulli_positions(rng, 1.0, 5, dense=dense),
            np.arange(5, dtype=np.int64),
        )

    def test_rate_matches_probability(self, dense):
        rng = np.random.default_rng(5)
        positions = _bernoulli_positions(rng, 0.05, 200_000, dense=dense)
        assert positions.size == pytest.approx(0.05 * 200_000, rel=0.05)


def _mask_formula(rng, probability, trials):
    """The sparse sampler as first written: ``last + cumsum(gaps)`` per
    batch and a boolean mask to trim the final one.  The in-place
    rewrite must consume the generator and return positions exactly
    like this."""
    expected = trials * probability
    batch = int(expected + 4.0 * expected**0.5 + 16.0)
    chunks = []
    last = -1
    while True:
        gaps = rng.geometric(probability, size=batch)
        positions = last + np.cumsum(gaps)
        if positions[-1] >= trials:
            chunks.append(positions[positions < trials])
            break
        chunks.append(positions)
        last = int(positions[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


class _ShortGaps:
    """A generator stand-in whose gaps are drawn at a much higher success
    probability than requested, so the sampler's first gap batch (sized
    for the requested one) falls far short of ``trials`` and must be
    refilled several times.  Its exponentials are divided by ``factor``
    and its ``geometric`` is the sampler's inversion over them, so the
    ``geometric``-based formulas consume exactly the same gaps.
    ``batches`` counts exponential draws and ``variates`` their sizes."""

    def __init__(self, seed, factor):
        self.rng = np.random.default_rng(seed)
        self.factor = factor
        self.batches = 0
        self.variates = 0

    def standard_exponential(self, size):
        self.batches += 1
        self.variates += size
        return self.rng.standard_exponential(size) / self.factor

    def geometric(self, probability, size):
        gaps = self.standard_exponential(size) / -math.log1p(-probability)
        return np.ceil(gaps).astype(np.int64)

    def random(self, size):
        return self.rng.random(size)


class TestSparseRewriteEqualsMaskFormula:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2026])
    @pytest.mark.parametrize(
        "probability, trials",
        [(1e-4, 1_000_000), (0.003, 10_000), (0.01, 64), (0.05, 150_001),
         (0.2, 5000), (0.5, 1)],
    )
    def test_real_generator(self, seed, probability, trials):
        new = _bernoulli_positions(
            np.random.default_rng(seed), probability, trials, dense=False
        )
        old = _mask_formula(np.random.default_rng(seed), probability, trials)
        np.testing.assert_array_equal(new, old)
        assert new.dtype == np.int64

    @pytest.mark.parametrize("seed", [3, 11, 99])
    @pytest.mark.parametrize("probability, trials", [(0.001, 50_000), (0.02, 4000)])
    def test_batches_needing_several_refills(self, seed, probability, trials):
        new_rng = _ShortGaps(seed, factor=8)
        new = _bernoulli_positions(new_rng, probability, trials, dense=False)
        old_rng = _ShortGaps(seed, factor=8)
        old = _mask_formula(old_rng, probability, trials)
        assert new_rng.batches >= 3
        assert new_rng.batches == old_rng.batches
        np.testing.assert_array_equal(new, old)
        assert (np.diff(new) > 0).all()  # sorted, no duplicates
        assert 0 <= new[0] and new[-1] < trials


def _whole_batch(rng, probability, trials):
    """The sampler as it stood before chunking: whole ``geometric`` gap
    batches turned into positions in place (sparse), or one uniform per
    trial (dense).  The chunk generator must consume the generator and
    return positions exactly like this."""
    if probability >= DENSE_PROBABILITY:
        return np.flatnonzero(rng.random(trials) < probability)
    expected = trials * probability
    batch = int(expected + 4.0 * expected**0.5 + 16.0)
    chunks = []
    last = -1
    while True:
        positions = rng.geometric(probability, size=batch)
        np.cumsum(positions, out=positions)
        positions += last
        if positions[-1] >= trials:
            chunks.append(positions[: np.searchsorted(positions, trials)])
            break
        chunks.append(positions)
        last = int(positions[-1])
    return np.concatenate(chunks)


def _assert_chunks_match(new_rng, old_rng, probability, trials):
    """The chunks concatenate to the whole-batch draw, each holds at most
    DRAW_CHUNK sorted positions, and both generators end in one state."""
    chunks = list(_bernoulli_position_chunks(new_rng, probability, trials))
    old = _whole_batch(old_rng, probability, trials)
    for chunk in chunks:
        assert chunk.dtype == np.int64
        assert 0 < chunk.size <= monte_carlo.DRAW_CHUNK
    new = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    np.testing.assert_array_equal(new, old)
    assert (np.diff(new) > 0).all()
    np.testing.assert_array_equal(new_rng.random(5), old_rng.random(5))
    return chunks


class TestInversionEqualsGeometric:
    # The sparse regime computes its gaps as ceil(E / -log1p(-p)) from
    # standard exponentials, which is what Generator.geometric does per
    # variate below p = 1/3.  Pinned here so a NumPy that changes its
    # geometric algorithm fails loudly instead of moving every digest.
    @pytest.mark.parametrize(
        "probability",
        [1e-9, 1e-7, 1e-5, 1e-4, 3e-3, 0.01, 0.04, 0.08, 0.2, 0.2499],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 2026])
    def test_inversion(self, probability, seed):
        geometric = np.random.default_rng(seed)
        inversion = np.random.default_rng(seed)
        expected = geometric.geometric(probability, size=20_000)
        gaps = inversion.standard_exponential(20_000) / -math.log1p(-probability)
        np.testing.assert_array_equal(np.ceil(gaps).astype(np.int64), expected)
        assert inversion.bit_generator.state == geometric.bit_generator.state


class TestChunksEqualWholeBatch:
    @pytest.mark.parametrize("chunk", [5, 64, None])
    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 150_001])
    @pytest.mark.parametrize(
        "probability", [1e-4, 3e-3, 0.04, 0.2, DENSE_PROBABILITY, 0.6]
    )
    def test_real_generator(self, monkeypatch, chunk, trials, probability):
        if chunk is not None:
            monkeypatch.setattr(monte_carlo, "DRAW_CHUNK", chunk)
        for seed in (0, 2026):
            _assert_chunks_match(
                np.random.default_rng(seed),
                np.random.default_rng(seed),
                probability,
                trials,
            )

    @pytest.mark.parametrize("offset", [0, 1, 7])
    def test_crossing_on_every_chunk_position(self, monkeypatch, offset):
        # The gap sequence does not depend on ``trials``, so choosing
        # ``trials`` as one of its positions puts the crossing (the
        # first position >= trials) at a chosen index; ``offset`` picks
        # that index's place inside its chunk: the first site, a middle
        # one, or exactly the chunk's end.
        chunk, probability = 8, 0.02
        monkeypatch.setattr(monte_carlo, "DRAW_CHUNK", chunk)
        positions = np.cumsum(np.random.default_rng(5).geometric(probability, 4000)) - 1
        tested = 0
        for crossing in range(100, 3000, 37):
            trials = int(positions[crossing])
            expected = trials * probability
            batch = int(expected + 4.0 * expected**0.5 + 16.0)
            if crossing >= batch or crossing % chunk != offset:
                continue
            tested += 1
            chunks = _assert_chunks_match(
                np.random.default_rng(5),
                np.random.default_rng(5),
                probability,
                trials,
            )
            assert sum(map(len, chunks)) == crossing
        assert tested >= 3

    @pytest.mark.parametrize("seed", [3, 11, 99])
    def test_several_refills(self, monkeypatch, seed):
        # 94-variate batches (not a multiple of 16) at an 8x shortened
        # gap: each batch is five 16-variate chunks and a 14-variate
        # tail, and the draw refills several times.
        monkeypatch.setattr(monte_carlo, "DRAW_CHUNK", 16)
        new_rng = _ShortGaps(seed, factor=8)
        old_rng = _ShortGaps(seed, factor=8)
        _assert_chunks_match(new_rng, old_rng, 0.001, 50_000)
        assert new_rng.variates == old_rng.variates
        assert new_rng.variates >= 3 * 94
        assert new_rng.batches > old_rng.batches >= 3


class TestRegimeSelection:
    def test_threshold_switches_regime_stream(self):
        # At p >= DENSE_PROBABILITY the default draw must consume the
        # generator exactly like an explicit dense draw; below, like an
        # explicit sparse draw.
        for probability, dense in ((0.3, True), (0.05, False)):
            auto = _bernoulli_positions(
                np.random.default_rng(6), probability, 4000
            )
            forced = _bernoulli_positions(
                np.random.default_rng(6), probability, 4000, dense=dense
            )
            np.testing.assert_array_equal(auto, forced)

    def test_threshold_value(self):
        # Pinned because it is part of the fault stream: one inverted
        # gap costs ~15 ns per *success* and one thresholded uniform
        # ~7 ns per *trial*, so the regimes now meet nearer p = 0.45,
        # but moving the switch would change every draw in between.
        # Every frozen digest and threshold experiment draws well below.
        assert DENSE_PROBABILITY == 0.25


class TestDistributionAgreement:
    def test_two_sided_mean_and_variance(self):
        # 400 repetitions of 2000 draws per regime at p = 0.05.  The
        # pooled success counts are Binomial(n_total, p); a two-sided
        # two-proportion z-test must not separate the regimes, and the
        # per-repetition count variance must match Binomial variance
        # within generous (but two-sided) bounds for BOTH regimes.
        probability, trials, reps = 0.05, 2000, 400
        counts = {}
        for dense in (False, True):
            rng = np.random.default_rng(12345)
            counts[dense] = np.array(
                [
                    _bernoulli_positions(rng, probability, trials, dense=dense).size
                    for _ in range(reps)
                ]
            )
        n_total = trials * reps
        p_pool = (counts[False].sum() + counts[True].sum()) / (2 * n_total)
        z = (counts[True].sum() - counts[False].sum()) / np.sqrt(
            2 * n_total * p_pool * (1 - p_pool)
        )
        assert abs(z) < 4.0, f"regimes separated: z = {z:.2f}"
        expected_var = trials * probability * (1 - probability)
        for dense, sample in counts.items():
            ratio = sample.var(ddof=1) / expected_var
            assert 0.7 < ratio < 1.4, (
                f"dense={dense}: count variance off Binomial by {ratio:.2f}x"
            )

    def test_sparse_regime_still_default_below_threshold(self):
        # The frozen engine digests rely on the sparse stream at the
        # reference g = 0.01; the default regime there must stay sparse.
        sparse = _bernoulli_positions(np.random.default_rng(7), 0.01, 1000)
        dense = _bernoulli_positions(
            np.random.default_rng(7), 0.01, 1000, dense=True
        )
        assert not np.array_equal(sparse, dense)
