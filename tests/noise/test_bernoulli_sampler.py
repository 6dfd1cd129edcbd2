"""The two Bernoulli position samplers: contract and agreement.

``_bernoulli_positions`` has a sparse regime (geometric gap jumping)
and a dense regime (direct thresholded uniforms) behind one contract:
sorted, duplicate-free int64 indices in ``[0, trials)``.  Both regimes
are exercised explicitly via the ``dense`` override, and a two-sided
statistical test checks they draw from the same fault-count
distribution (mean AND variance — a z-test on the pooled success count
plus a variance-ratio bound across repetitions).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.noise.monte_carlo import DENSE_PROBABILITY, _bernoulli_positions


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
    """A generator stand-in whose geometric gaps are drawn at a much
    higher success probability than requested, so the sampler's
    first gap batch (sized for the requested one) falls far short of
    ``trials`` and must be refilled several times."""

    def __init__(self, seed, factor):
        self.rng = np.random.default_rng(seed)
        self.factor = factor
        self.batches = 0

    def geometric(self, probability, size):
        self.batches += 1
        return self.rng.geometric(min(1.0, probability * self.factor), size)


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
        # The measured crossover on vectorised NumPy generators: one
        # geometric gap costs ~14 ns per *success*, one uniform ~3 ns
        # per *trial*, so gap jumping keeps winning until successes are
        # about a quarter of the axis.  Every frozen digest and
        # threshold experiment draws well below this.
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
