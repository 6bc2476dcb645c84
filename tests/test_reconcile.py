import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercast import reconcile
from hiercast import (ConfigError, DataError, ErrorCovariance, Hierarchy,
                      NumericError,
                      aggregate, apply_topdown, bottom_up,
                      build_summing_matrix, coherence_violation, middle_out,
                      mint_reconcile, proportions_ahp, proportions_fp,
                      proportions_pha, shrinkage_covariance)

from conftest import make_hierarchy, panel_from_bottom, uneven_trees


def two_level():
    return Hierarchy.from_nodes(
        [("total", None, 0), ("a", "total", 1), ("b", "total", 1)]
    )


def three_level():
    return Hierarchy.from_nodes([
        ("total", None, 0),
        ("a", "total", 1), ("b", "total", 1),
        ("a0", "a", 2), ("a1", "a", 2),
        ("b0", "b", 2), ("b1", "b", 2),
    ])


class TestBottomUp:
    def test_two_leaves(self):
        S = build_summing_matrix(two_level())
        assert bottom_up(S, [[4.0, 5.0]]).tolist() == [[9, 4, 5]]

    def test_zero_bottom(self):
        S = build_summing_matrix(two_level())
        assert bottom_up(S, [[0.0, 0.0]]).tolist() == [[0, 0, 0]]

    def test_matches_aggregate_on_random_instance(self, rng):
        S = build_summing_matrix(make_hierarchy((3, 2)))
        bottom = rng.standard_normal((8, S.m_bottom))
        assert np.array_equal(bottom_up(S, bottom), aggregate(S, bottom))


class TestHistoricalProportions:
    def test_ahp_varying_shares(self):
        panel = panel_from_bottom(two_level(), [[1.0, 3.0], [3.0, 1.0]])
        assert np.allclose(proportions_ahp(panel), [0.5, 0.5])

    def test_ahp_constant_shares(self):
        panel = panel_from_bottom(two_level(), [[1.0, 3.0], [1.0, 3.0]])
        assert np.allclose(proportions_ahp(panel), [0.25, 0.75])

    def test_single_bottom_series(self):
        h = Hierarchy.from_nodes([("total", None, 0), ("only", "total", 1)])
        panel = panel_from_bottom(h, [[2.0], [5.0]])
        assert np.allclose(proportions_ahp(panel), [1.0])
        assert np.allclose(proportions_pha(panel), [1.0])

    def test_pha_constant_shares(self):
        panel = panel_from_bottom(two_level(), [[1.0, 3.0], [1.0, 3.0]])
        assert np.allclose(proportions_pha(panel), [0.25, 0.75])

    def test_ahp_pha_disagree_witness(self):
        # shares 0.25 then 0.8: AHP averages the ratios, PHA ratios the means
        panel = panel_from_bottom(two_level(), [[1.0, 3.0], [8.0, 2.0]])
        assert proportions_pha(panel)[0] == pytest.approx(4.5 / 7)
        assert proportions_ahp(panel)[0] == pytest.approx(0.525)

    def test_ahp_skips_zero_total_with_warning(self):
        panel = panel_from_bottom(two_level(), [[0.0, 0.0], [1.0, 3.0]])
        with pytest.warns(UserWarning, match="zero total"):
            p = proportions_ahp(panel)
        assert np.allclose(p, [0.25, 0.75])

    def test_all_zero_total_rejected(self):
        panel = panel_from_bottom(two_level(), [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError):
            proportions_ahp(panel)
        with pytest.raises(DataError):
            proportions_pha(panel)

    def test_proportions_on_simplex(self, rng):
        panel = panel_from_bottom(make_hierarchy((3, 2)),
                                  rng.random((30, 6)) + 0.1)
        for p in (proportions_ahp(panel), proportions_pha(panel)):
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)


class TestForecastedProportions:
    def test_two_level_ignores_top(self):
        h = two_level()
        for top in (1.0, 100.0):
            base = np.array([[top, 2.0, 3.0]])
            assert np.allclose(proportions_fp(base, h)[0], [0.4, 0.6])

    def test_three_level_nested_shares(self):
        h = three_level()
        row = np.zeros(h.M)
        for node, v in [("total", 99.0), ("a", 6.0), ("b", 4.0),
                        ("a0", 1.0), ("a1", 2.0), ("b0", 3.0), ("b1", 5.0)]:
            row[h.index(node)] = v
        p = proportions_fp(row[None, :], h)[0]
        assert np.allclose(p, [0.2, 0.4, 0.15, 0.25])

    def test_identical_bases_give_uniform_sibling_shares(self):
        h = three_level()
        p = proportions_fp(np.full((1, h.M), 3.0), h)[0]
        assert np.allclose(p, 0.25)

    def test_per_step_proportions_differ(self):
        h = two_level()
        base = np.array([[9.0, 2.0, 3.0], [9.0, 4.0, 1.0]])
        assert np.allclose(proportions_fp(base, h), [[0.4, 0.6], [0.8, 0.2]])

    def test_zero_sibling_sum_names_node_and_step(self):
        h = two_level()
        base = np.array([[9.0, 0.0, 0.0]])
        with pytest.raises(NumericError, match="total.*step 0"):
            proportions_fp(base, h)

    def test_wrong_width_rejected(self):
        with pytest.raises(DataError):
            proportions_fp(np.ones((1, 5)), two_level())

    def test_zero_sum_error_names_first_node_then_its_first_step(self):
        h = three_level()
        base = np.ones((3, h.M))
        base[2, [h.index("a0"), h.index("a1")]] = 0.0
        base[1, [h.index("b0"), h.index("b1")]] = 0.0
        with pytest.raises(NumericError, match="'a'.*step 2"):
            proportions_fp(base, h)


class TestApplyTopdown:
    def test_formula(self):
        S = build_summing_matrix(two_level())
        out = apply_topdown(S, [0.4, 0.6], [10.0])
        assert np.allclose(out, [[10, 4, 6]])

    def test_all_mass_to_first_leaf(self):
        S = build_summing_matrix(two_level())
        assert apply_topdown(S, [1.0, 0.0], [7.0]).tolist() == [[7, 7, 0]]

    def test_bottom_sums_to_top_exactly(self, rng):
        S = build_summing_matrix(make_hierarchy((4,)))
        p = rng.random(4)
        p /= p.sum()
        top = rng.random(6) * 10
        out = apply_topdown(S, p, top)
        assert np.allclose(out[:, -4:].sum(axis=1), top, atol=1e-12)
        assert coherence_violation(S, out) <= 1e-9

    def test_off_simplex_rejected(self):
        S = build_summing_matrix(two_level())
        with pytest.raises(DataError):
            apply_topdown(S, [0.4, 0.7], [10.0])

    def test_one_proportion_vector_per_step(self):
        S = build_summing_matrix(two_level())
        out = apply_topdown(S, [[0.4, 0.6], [0.8, 0.2]], [10.0, 5.0])
        assert np.allclose(out, [[10, 4, 6], [5, 4, 1]])

    def test_per_step_rows_must_match_steps(self):
        S = build_summing_matrix(two_level())
        with pytest.raises(DataError, match="2 proportion rows for 3 steps"):
            apply_topdown(S, [[0.4, 0.6], [0.8, 0.2]], [10.0, 5.0, 1.0])


class TestMiddleOut:
    def test_k0_reduces_to_topdown(self):
        h = two_level()
        S = build_summing_matrix(h)
        out = middle_out(h, S, 0, [[10.0]], {"total": [0.4, 0.6]})
        assert np.allclose(out, apply_topdown(S, [0.4, 0.6], [10.0]))

    def test_bottom_level_reduces_to_bottom_up(self, rng):
        h = make_hierarchy((2, 2))
        S = build_summing_matrix(h)
        bottom = rng.random((3, 4))
        out = middle_out(h, S, h.K - 1, bottom, {})
        assert np.allclose(out, bottom_up(S, bottom))

    def test_three_level_composition_oracle(self):
        h = three_level()
        S = build_summing_matrix(h)
        props = {"a": [1 / 3, 2 / 3], "b": [0.25, 0.75]}
        out = middle_out(h, S, 1, [[6.0, 4.0]], props)
        # hand composition: bottom = shares within each middle subtree,
        # then everything re-aggregated
        expected_bottom = [6 / 3, 12 / 3, 1.0, 3.0]
        expected = aggregate(S, np.array([expected_bottom]))
        assert np.allclose(out, expected)
        assert coherence_violation(S, out) <= 1e-9

    def test_invalid_level_rejected(self):
        h = two_level()
        S = build_summing_matrix(h)
        with pytest.raises(DataError):
            middle_out(h, S, 5, [[1.0]], {})


class TestShrinkageCovariance:
    def test_forced_lambda_one_is_diagonal(self, rng):
        E = rng.standard_normal((40, 4))
        cov = shrinkage_covariance(E, lam=1.0)
        off = ~np.eye(4, dtype=bool)
        assert np.all(cov.W[off] == 0.0)
        assert cov.lam == 1.0

    def test_forced_lambda_zero_is_sample_covariance(self, rng):
        E = rng.standard_normal((40, 4))
        cov = shrinkage_covariance(E, lam=0.0)
        assert np.allclose(cov.W, np.cov(E, rowvar=False))

    def test_estimated_lambda_shrinks_off_diagonals(self, rng):
        # independent coordinates: true off-diagonals are zero, so the
        # estimator should shrink the spurious sample correlations
        E = rng.standard_normal((200, 5))
        cov = shrinkage_covariance(E)
        sample = np.cov(E, rowvar=False)
        off = ~np.eye(5, dtype=bool)
        assert 0.0 < cov.lam <= 1.0
        assert np.abs(cov.W[off]).max() < np.abs(sample[off]).max()

    def test_lambda_interpolates(self, rng):
        E = rng.standard_normal((30, 3))
        sample = np.cov(E, rowvar=False)
        cov = shrinkage_covariance(E, lam=0.5)
        expected = 0.5 * np.diag(np.diag(sample)) + 0.5 * sample
        assert np.allclose(cov.W, expected)

    @staticmethod
    def _tensor_terms(E):
        """lambda and var_r from the (n, M, M) tensor of the textbook
        Schafer-Strimmer formula."""
        n, M = E.shape
        Xc = E - E.mean(axis=0)
        s = np.sqrt(np.diag((Xc.T @ Xc) / (n - 1)))
        Z = Xc / np.where(s > 0, s, 1.0)
        R = (Z.T @ Z) / (n - 1)
        Wt = Z[:, :, None] * Z[:, None, :]
        var_r = (n / (n - 1.0) ** 3) * ((Wt - Wt.mean(axis=0)) ** 2).sum(axis=0)
        off = ~np.eye(M, dtype=bool)
        lam = float(np.clip(var_r[off].sum() / (R[off] ** 2).sum(), 0.0, 1.0))
        return Z, var_r, lam

    def test_variance_term_matches_tensor_formula(self, rng):
        # the O(M^2) expansion rounds differently from the tensor: agree to
        # a relative 1e-12, constant (all-zero after centring) columns too
        for n, M in ((5, 4), (12, 3), (60, 12), (200, 30)):
            E = rng.standard_normal((n, M)) * rng.uniform(0.1, 10.0, M)
            E[:, 1] = 3.0
            Z, var_r, lam = self._tensor_terms(E)
            got = reconcile._correlation_variance(Z)
            assert np.allclose(got, var_r, rtol=1e-12, atol=0.0)
            assert np.all(got[1] == 0.0) and np.all(got[:, 1] == 0.0)
            assert shrinkage_covariance(E).lam == pytest.approx(lam, rel=1e-12)

    def test_variance_term_near_zero_within_rounding_of_its_terms(self, rng):
        # n=2: every product z_ki z_kj is the same for both rows, so the true
        # variance is 0; the expansion leaves rounding residue of the size
        # of its terms, not a relative error
        E = rng.standard_normal((2, 4))
        Z, var_r, _ = self._tensor_terms(E)
        got = reconcile._correlation_variance(Z)
        scale = 2.0 * (Z * Z).T @ (Z * Z)
        assert np.all(np.abs(got - var_r) <= 1e-12 * scale)
        assert shrinkage_covariance(E).lam == pytest.approx(0.0, abs=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            shrinkage_covariance(np.ones((1, 3)))

    def test_invalid_lambda_rejected(self, rng):
        with pytest.raises(DataError):
            shrinkage_covariance(rng.standard_normal((10, 2)), lam=1.5)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DataError, match="symmetric"):
            ErrorCovariance(W=np.array([[1.0, 0.2], [0.1, 1.0]]), lam=0.0)


class TestMint:
    def test_identity_weight_hand_example(self):
        S = build_summing_matrix(two_level())
        cov = ErrorCovariance(W=np.eye(3), lam=1.0)
        out = mint_reconcile(S, [[10.0, 4.0, 5.0]], cov)
        assert np.allclose(out, [[29 / 3, 13 / 3, 16 / 3]], atol=1e-9)

    def test_coherent_input_is_fixed_point(self):
        S = build_summing_matrix(two_level())
        cov = ErrorCovariance(W=np.eye(3), lam=1.0)
        out = mint_reconcile(S, [[9.0, 4.0, 5.0]], cov)
        assert np.allclose(out, [[9.0, 4.0, 5.0]], atol=1e-10)

    def test_idempotent(self, rng):
        S = build_summing_matrix(make_hierarchy((3, 2)))
        E = rng.standard_normal((50, S.M))
        cov = shrinkage_covariance(E)
        base = rng.standard_normal((4, S.M)) * 5
        once = mint_reconcile(S, base, cov)
        twice = mint_reconcile(S, once, cov)
        assert np.abs(twice - once).max() <= 1e-10

    def test_identity_weight_matches_normal_equations(self, rng):
        for _ in range(20):
            h = make_hierarchy((int(rng.integers(2, 4)),))
            S = build_summing_matrix(h)
            base = rng.standard_normal((3, S.M))
            cov = ErrorCovariance(W=np.eye(S.M), lam=1.0)
            out = mint_reconcile(S, base, cov)
            # least-squares oracle: b = (S'S)^-1 S' y per step
            A = S.entries
            b = np.linalg.solve(A.T @ A, A.T @ base.T).T
            assert np.allclose(out, b @ A.T, atol=1e-8)

    def test_preserves_s_column_space_any_spd_weight(self, rng):
        S = build_summing_matrix(make_hierarchy((2, 2)))
        for _ in range(10):
            R = rng.standard_normal((S.M, S.M))
            W = R @ R.T + S.M * np.eye(S.M)
            cov = ErrorCovariance(W=(W + W.T) / 2, lam=0.0)
            b = rng.standard_normal((2, S.m_bottom))
            coherent = aggregate(S, b)
            out = mint_reconcile(S, coherent, cov)
            assert np.abs(out - coherent).max() <= 1e-9

    def test_output_always_coherent(self, rng):
        S = build_summing_matrix(make_hierarchy((3, 2)))
        cov = shrinkage_covariance(rng.standard_normal((60, S.M)))
        out = mint_reconcile(S, rng.standard_normal((5, S.M)), cov)
        assert coherence_violation(S, out) <= 1e-9

    def test_dimension_mismatch(self):
        S = build_summing_matrix(two_level())
        cov = ErrorCovariance(W=np.eye(3), lam=1.0)
        with pytest.raises(DataError):
            mint_reconcile(S, np.ones((1, 4)), cov)


class TestReconcile:
    def _inputs(self):
        h = three_level()
        hist = panel_from_bottom(h, [[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]])
        base = np.arange(1.0, 2 * h.M + 1).reshape(2, h.M)
        return h, build_summing_matrix(h), base, hist

    def test_each_method_matches_its_function(self):
        h, S, base, hist = self._inputs()
        top = base[:, 0]
        leaves = [h.index(n) for n in h.bottom_ids]
        mids = [h.index(n) for n in h.level_ids(1)]
        # historical leaf means: a0 1.5, a1 2, b0 2, b1 4.5
        props = {"a": [3 / 7, 4 / 7], "b": [4 / 13, 9 / 13]}
        expected = {
            "bu": bottom_up(S, base[:, leaves]),
            "ahp": apply_topdown(S, proportions_ahp(hist), top),
            "pha": apply_topdown(S, proportions_pha(hist), top),
            "fp": apply_topdown(S, proportions_fp(base, h), top),
            "mo": middle_out(h, S, 1, base[:, mids], props),
            "mint": mint_reconcile(S, base, ErrorCovariance(np.eye(h.M), 1.0)),
        }
        assert set(expected) == set(reconcile.METHODS)
        for method, want in expected.items():
            got = reconcile.reconcile(method, S, h, base, hist, 1)
            assert np.allclose(got, want), method

    def test_mint_errors_give_shrinkage_covariance(self, rng):
        h, S, base, hist = self._inputs()
        E = rng.standard_normal((20, h.M))
        got = reconcile.reconcile("mint", S, h, base, None, errors=E,
                                  shrinkage=0.3)
        want = mint_reconcile(S, base, shrinkage_covariance(E, 0.3))
        assert np.array_equal(got, want)

    def test_unknown_method_lists_choices(self):
        h, S, base, hist = self._inputs()
        choices = ", ".join(reconcile.METHODS)
        with pytest.raises(ConfigError, match=f"'xyz' \\(choose from {choices}\\)"):
            reconcile.reconcile("xyz", S, h, base, hist)

    def test_middle_out_at_bottom_level_ignores_zero_leaf(self):
        # a single-leaf node takes no proportions, so a leaf that is zero
        # at every step still reconciles; at the bottom level mo is bu
        h = two_level()
        S = build_summing_matrix(h)
        hist = panel_from_bottom(h, [[0.0, 2.0], [0.0, 3.0]])
        base = np.array([[4.0, 1.0, 2.0], [5.0, 0.5, 3.0]])
        got = reconcile.reconcile("mo", S, h, base, hist, 1)
        assert np.array_equal(got, reconcile.reconcile("bu", S, h, base, hist))

    @pytest.mark.parametrize("level", [5, -1])
    def test_middle_level_outside_hierarchy(self, level):
        h, S, base, hist = self._inputs()
        with pytest.raises(DataError, match=f"middle level {level} outside"):
            reconcile.reconcile("mo", S, h, base, hist, level)


@st.composite
def instances(draw):
    """A random tree, a positive history panel, positive base forecasts and
    base-forecast errors."""
    h = draw(uneven_trees())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = len(h.bottom_ids)
    hist = panel_from_bottom(h, rng.uniform(0.5, 10.0, (12, m)))
    base = rng.uniform(0.5, 10.0, (3, h.M))
    errors = rng.standard_normal((30, h.M))
    return h, build_summing_matrix(h), hist, base, errors, rng


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(instances(), st.data())
    def test_every_method_is_coherent(self, inst, data):
        h, S, hist, base, errors, _ = inst
        level = data.draw(st.integers(0, h.K - 1))
        E = data.draw(st.sampled_from([None, errors]))
        for method in reconcile.METHODS:
            out = reconcile.reconcile(method, S, h, base, hist, level, E)
            assert coherence_violation(S, out) <= 1e-9, method

    @settings(max_examples=30, deadline=None)
    @given(instances())
    def test_bu_and_mint_keep_coherent_input(self, inst):
        h, S, hist, _, errors, rng = inst
        coherent = aggregate(S, rng.uniform(0.5, 10.0, (3, S.m_bottom)))
        for method, E in (("bu", None), ("mint", None), ("mint", errors)):
            out = reconcile.reconcile(method, S, h, coherent, hist, 1, E)
            assert np.abs(out - coherent).max() <= 1e-9, (method, E is None)

    @settings(max_examples=30, deadline=None)
    @given(instances())
    def test_proportions_on_simplex(self, inst):
        h, _, hist, base, _, _ = inst
        for p in (proportions_ahp(hist), proportions_pha(hist),
                  proportions_fp(base, h)):
            assert np.all(p >= 0)
            assert np.abs(np.atleast_2d(p).sum(axis=1) - 1.0).max() <= 1e-9
