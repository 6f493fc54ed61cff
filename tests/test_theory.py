import math

import numpy as np
import pytest

from tma.graph import generate_synthetic
from tma.partition import partition_min_cut, partition_random_node, partition_stats
from tma.theory import (
    TheoryError,
    TwoClassSetup,
    argmin_edge_cut_beta,
    empirical_initial_gradients,
    expected_edge_cut,
    expected_initial_gradients,
    expected_local_loss,
    gradient_discrepancies,
    label_aligned_partition,
    predicted_generator_cut,
    trainer_gradient_spread,
)


class TestExpectedEdgeCut:
    def test_beta_half(self):
        s = TwoClassSetup(beta=0.5, h=0.7, eta=100)
        assert expected_edge_cut(s) == pytest.approx(s.eta / 2)

    def test_pure_partition_pure_homophily_cuts_nothing(self):
        s = TwoClassSetup(beta=1.0, h=1.0, eta=50)
        assert expected_edge_cut(s) == pytest.approx(0.0, abs=1e-12)

    def test_argmin_is_pure_partition_for_homophilic(self):
        for h in (0.6, 0.7, 0.8, 0.9, 1.0):
            assert argmin_edge_cut_beta(h) == pytest.approx(1.0)

    def test_flat_at_h_half(self):
        betas = np.linspace(0.5, 1.0, 51)
        vals = [expected_edge_cut(TwoClassSetup(beta=float(b), h=0.5, eta=10)) for b in betas]
        assert max(vals) - min(vals) < 1e-12

    def test_monotone_above_half(self):
        lam = lambda b: expected_edge_cut(TwoClassSetup(beta=b, h=0.7, eta=10))
        assert lam(1.0) < lam(0.6)


class TestExpectedGradients:
    def test_beta_half_no_discrepancy(self):
        s = TwoClassSetup(beta=0.5, h=0.8, eta=10)
        g, g1, g2 = expected_initial_gradients(s)
        assert np.allclose(g, g1)
        assert np.allclose(g, g2)

    def test_pure_partition_value(self):
        s = TwoClassSetup(beta=1.0, h=0.8, eta=10)
        _, g1, _ = expected_initial_gradients(s)
        assert np.allclose(g1, [-0.125, 0.0])

    def test_global_value(self):
        s = TwoClassSetup(beta=0.7, h=0.8, eta=10)
        g, _, _ = expected_initial_gradients(s)
        assert np.allclose(g, [-0.2 / 8, -0.8 / 8])

    def test_singular_corner_rejected(self):
        with pytest.raises(TheoryError):
            expected_initial_gradients(TwoClassSetup(beta=1.0, h=1.0, eta=10))
        with pytest.raises(TheoryError):
            expected_initial_gradients(TwoClassSetup(beta=0.0, h=0.0, eta=10))


class TestGradientDiscrepancies:
    def test_matches_norms_of_gradient_differences(self):
        for b in np.arange(0.5, 1.0, 0.07):
            for h in np.arange(0.55, 1.0, 0.1):
                s = TwoClassSetup(beta=float(b), h=float(h), eta=10)
                g, g1, g2 = expected_initial_gradients(s)
                d_g1, d_g2, d_12 = gradient_discrepancies(s)
                assert abs(d_g1 - np.linalg.norm(g - g1)) < 1e-12
                assert abs(d_g2 - np.linalg.norm(g - g2)) < 1e-12
                assert abs(d_12 - np.linalg.norm(g1 - g2)) < 1e-12

    def test_zero_at_beta_half(self):
        assert gradient_discrepancies(TwoClassSetup(beta=0.5, h=0.8, eta=10)) == (0, 0, 0)

    @pytest.mark.parametrize("h", [0.0, 1.0])
    def test_zero_at_degenerate_h(self, h):
        d = gradient_discrepancies(TwoClassSetup(beta=0.8, h=h, eta=10))
        assert d == (0.0, 0.0, 0.0)

    def test_monotone_in_beta(self):
        vals = [
            gradient_discrepancies(TwoClassSetup(beta=float(b), h=0.8, eta=10))[2]
            for b in np.arange(0.5, 0.995, 0.01)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestExpectedLocalLoss:
    def test_zero_weights_give_quarter(self):
        s = TwoClassSetup(beta=0.8, h=0.9, eta=10)
        assert expected_local_loss(s, 0.0, 0.0, 1) == pytest.approx(0.25)
        assert expected_local_loss(s, 0.0, 0.0, 2) == pytest.approx(0.25)

    def test_equal_iff_beta_half(self):
        s = TwoClassSetup(beta=0.5, h=0.9, eta=10)
        for w0, w1 in [(1.0, -1.0), (0.3, 2.0), (-2.0, 0.1)]:
            assert expected_local_loss(s, w0, w1, 1) == pytest.approx(
                expected_local_loss(s, w0, w1, 2), abs=1e-12
            )
        grid = [(b, w0, w1) for b in (0.6, 0.8, 0.95) for w0, w1 in [(1.0, -1.0), (0.5, 2.0)]]
        for b, w0, w1 in grid:
            s = TwoClassSetup(beta=b, h=0.9, eta=10)
            assert expected_local_loss(s, w0, w1, 1) != pytest.approx(
                expected_local_loss(s, w0, w1, 2), abs=1e-12
            )

    def test_instance_asymmetry_example(self):
        s = TwoClassSetup(beta=0.8, h=0.9, eta=10)
        assert expected_local_loss(s, 1.0, -1.0, 1) != expected_local_loss(s, 1.0, -1.0, 2)

    def test_matches_sigmoid_of_expected_activation(self):
        # the closed form equals (1 - sigma(E[g]))^2
        s = TwoClassSetup(beta=0.75, h=0.8, eta=10)
        w0, w1 = 0.7, -1.3
        den = (1 - s.h) * s.beta + s.h * (1 - s.beta)
        exp_g = ((1 - s.h) * s.beta * w0 + s.h * (1 - s.beta) * w1) / den
        sig = 1.0 / (1.0 + math.exp(-exp_g))
        assert expected_local_loss(s, w0, w1, 1) == pytest.approx((1 - sig) ** 2)

    def test_bad_instance(self):
        with pytest.raises(TheoryError):
            expected_local_loss(TwoClassSetup(beta=0.5, h=0.5, eta=5), 0, 0, 3)


class TestLabelAlignedPartition:
    def test_histogram_matches_beta(self):
        _, _, y = generate_synthetic(1000, 8.0, 0.8, seed=0)
        p = label_aligned_partition(y, 0.8)
        side1 = p.assignment == 0
        assert side1.sum() == 500
        frac0 = np.mean(y.labels[side1] == 0)
        assert frac0 == pytest.approx(0.8)

    def test_beta_one_is_class_split(self):
        _, _, y = generate_synthetic(200, 5.0, 0.7, seed=1)
        p = label_aligned_partition(y, 1.0)
        assert np.array_equal(p.assignment, y.labels.astype(np.int32) != 0)


class TestMonteCarloBinders:
    def test_edge_cut_matches_generator(self):
        s = TwoClassSetup(beta=1.0, h=0.8, eta=500)
        predicted = predicted_generator_cut(s, mean_degree=10.0)
        cuts = []
        for seed in range(20):
            g, _, y = generate_synthetic(1000, 10.0, 0.8, seed=seed)
            cuts.append(partition_stats(g, y, label_aligned_partition(y, 1.0)).cut_edges)
        assert abs(np.mean(cuts) - predicted) / predicted < 0.03

    def test_initial_gradients_match_closed_forms(self):
        s = TwoClassSetup(beta=0.9, h=0.8, eta=1000)
        want_g, want_1, want_2 = expected_initial_gradients(s)
        acc = np.zeros((3, 2))
        seeds = 10
        for seed in range(seeds):
            g, _, y = generate_synthetic(2000, 10.0, 0.8, seed=seed)
            p = label_aligned_partition(y, 0.9)
            got = empirical_initial_gradients(g, y, p)
            acc += np.stack(got)
        acc /= seeds
        for got, want in zip(acc, (want_g, want_1, want_2)):
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.02

    def test_gradient_spread_zero_for_single_trainer(self):
        g, _, y = generate_synthetic(400, 8.0, 0.9, seed=0)
        p = partition_random_node(g, 1, seed=0)
        assert trainer_gradient_spread(g, y, p) == 0.0

    def test_uniformity_report_orders_spreads(self):
        # random partitions' label histograms agree, and their gradients
        # spread less than min-cut partitions'
        gaps, spread_random, spread_min_cut = [], [], []
        for seed in range(3):
            g, _, y = generate_synthetic(2000, 10.0, 0.9, seed=seed)
            p_random = partition_random_node(g, 3, seed=seed)
            hist = partition_stats(g, y, p_random).label_histograms
            gaps.append(hist[0, 0] - hist[1, 0])
            spread_random.append(trainer_gradient_spread(g, y, p_random))
            p_min_cut = partition_min_cut(g, 3, seed=seed)
            spread_min_cut.append(trainer_gradient_spread(g, y, p_min_cut))
        sigma = np.std(gaps, ddof=1) / math.sqrt(len(gaps))
        assert abs(np.mean(gaps)) < max(3 * sigma, 0.05)
        assert np.mean(spread_min_cut) > np.mean(spread_random)
