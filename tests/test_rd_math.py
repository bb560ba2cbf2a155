"""Math kernel tests.

The frozen constants below were computed independently with mpmath at
40 decimal digits (entropy and a ternary-search minimization of the
convex per-joint mutual information), not with this package.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clp.errors import Infeasible
from clp.rd_math import (
    BinaryJoint,
    DistortionBudget,
    SourceModel,
    TypeFraction,
    as_fraction,
    binary_entropy,
    lower_mutual_info,
    lower_mutual_info_float,
    mutual_information,
    optimal_reproduction_type,
    rate_distortion,
)
from rd_oracle import lower_mutual_info_oracle, lower_mutual_info_oracle_batch

H_QUARTER = 0.81127812445913286391
H_03 = 0.88129089923069261822
R_03_01 = 0.41229530564141139697
R_HALF_011 = 0.50008404183547200436
IM_Q14_P12_D14 = 0.31127812445913286391
IM_Q25_P12_D011 = 0.5598126565410761902
IM_Q12_P310_D14 = 0.24170519367881040702
IM_Q310_P310_D110 = 0.4264215440875733798
IM_Q12_P12_D14 = 0.18872187554086713609


class TestBinaryEntropy:
    def test_known_points(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert abs(binary_entropy(0.25) - H_QUARTER) < 1e-15
        assert abs(binary_entropy(0.3) - H_03) < 1e-15

    def test_symmetry_and_range(self):
        for t in np.linspace(0.0, 1.0, 101):
            assert abs(binary_entropy(t) - binary_entropy(1.0 - t)) < 1e-12
            assert 0.0 <= binary_entropy(t) <= 1.0

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestRateDistortion:
    def test_frozen_values(self):
        assert abs(rate_distortion(Fraction(3, 10), Fraction(1, 10)) - R_03_01) < 1e-15
        assert abs(rate_distortion(Fraction(1, 2), Fraction(11, 100)) - R_HALF_011) < 1e-15

    def test_zero_distortion_gives_entropy(self):
        for p in (0.1, 0.3, 0.5, 0.77):
            assert rate_distortion(p, 0.0) == pytest.approx(binary_entropy(p), abs=1e-15)

    def test_degenerate_region_is_zero(self):
        assert rate_distortion(0.3, 0.3) == 0.0
        assert rate_distortion(0.3, 0.9) == 0.0
        assert rate_distortion(0.5, 0.5) == 0.0
        assert rate_distortion(0.0, 0.0) == 0.0

    def test_accepts_wrapper_types(self):
        got = rate_distortion(SourceModel.of("1/2"), DistortionBudget.of("1/4"))
        assert got == pytest.approx(1.0 - H_QUARTER, abs=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nonnegative_and_bounded(self, p, d):
        r = rate_distortion(p, d)
        assert 0.0 <= r <= 1.0

    @given(st.floats(0.01, 0.99), st.floats(0.0, 0.49), st.floats(0.0, 0.49))
    def test_monotone_in_distortion(self, p, d1, d2):
        lo, hi = sorted((d1, d2))
        assert rate_distortion(p, lo) >= rate_distortion(p, hi) - 1e-12


class TestLowerMutualInfo:
    def test_frozen_values(self):
        assert abs(lower_mutual_info(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
                   - IM_Q14_P12_D14) < 1e-12
        assert abs(lower_mutual_info(Fraction(2, 5), Fraction(1, 2), Fraction(11, 100))
                   - IM_Q25_P12_D011) < 1e-12
        assert abs(lower_mutual_info(Fraction(1, 2), Fraction(3, 10), Fraction(1, 4))
                   - IM_Q12_P310_D14) < 1e-12
        assert abs(lower_mutual_info(Fraction(3, 10), Fraction(3, 10), Fraction(1, 10))
                   - IM_Q310_P310_D110) < 1e-12

    def test_optimum_at_target_type_equals_rate(self):
        # at q = (p-D)/(1-2D) the minimum over q touches R(D)
        assert abs(lower_mutual_info(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
                   - IM_Q12_P12_D14) < 1e-12
        assert abs(IM_Q12_P12_D14 - rate_distortion(0.5, 0.25)) < 1e-12
        for p, d in ((0.3, 0.1), (0.42, 0.2), (0.5, 0.11)):
            q = optimal_reproduction_type(p, d)
            assert lower_mutual_info(q, p, d) == pytest.approx(
                rate_distortion(p, d), abs=1e-9)

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            lower_mutual_info(0.9, 0.2, 0.1)
        with pytest.raises(Infeasible):
            lower_mutual_info(0.0, 0.5, 0.3)

    def test_zero_when_independence_meets_budget(self):
        # p + q - 2pq <= D means independent marginals already comply
        assert lower_mutual_info(0.5, 0.5, 0.5) == 0.0
        assert lower_mutual_info(0.1, 0.1, 0.2) == 0.0

    def test_matches_grid_oracle_on_small_grid(self):
        ps = np.linspace(0.05, 0.95, 10)
        ds = np.linspace(0.0, 0.45, 5)
        for p in ps:
            for d in ds:
                for q in np.linspace(max(0.0, p - d), min(1.0, p + d), 12):
                    want = lower_mutual_info_oracle(q, p, d, grid_points=1 << 14)
                    got = lower_mutual_info(q, p, d)
                    assert abs(got - want) < 1e-9, (q, p, d)

    def test_float_variant_agrees(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = rng.uniform(0.02, 0.98)
            d = rng.uniform(0.0, 0.49)
            q = rng.uniform(max(0.0, p - d), min(1.0, p + d))
            assert lower_mutual_info_float(q, p, d) == pytest.approx(
                lower_mutual_info(q, p, d), abs=1e-12)

    def test_batch_oracle_agrees_with_scalar_oracle(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, 64)
        d = rng.uniform(0.0, 0.45, 64)
        q = np.clip(p + rng.uniform(-1, 1, 64) * d, 0.0, 1.0)
        batch = lower_mutual_info_oracle_batch(q, p, d)
        for i in range(64):
            want = lower_mutual_info_oracle(q[i], p[i], d[i], grid_points=1 << 14)
            assert abs(batch[i] - want) < 1e-9

    @given(st.floats(0.05, 0.95), st.floats(0.01, 0.45))
    @settings(max_examples=60)
    def test_argmin_over_q_is_target_type(self, p, d):
        if d >= min(p, 1.0 - p):
            return
        qs = np.linspace(max(0.0, p - d), min(1.0, p + d), 801)
        vals = [lower_mutual_info_float(q, p, d) for q in qs]
        q_best = qs[int(np.argmin(vals))]
        assert abs(q_best - optimal_reproduction_type(p, d)) < 2e-3


class TestOptimalReproductionType:
    def test_formula_and_clamping(self):
        assert optimal_reproduction_type(0.5, 0.25) == pytest.approx(0.5)
        assert optimal_reproduction_type(0.3, 0.1) == pytest.approx(0.25)
        assert optimal_reproduction_type(0.05, 0.2) == 0.0  # clamped at zero
        assert optimal_reproduction_type(0.95, 0.2) == 1.0  # clamped at one

    def test_rejects_half_and_beyond(self):
        with pytest.raises(ValueError):
            optimal_reproduction_type(0.5, 0.5)
        with pytest.raises(ValueError):
            optimal_reproduction_type(0.5, 0.7)


class TestMutualInformation:
    def test_independent_pair_has_zero_information(self):
        assert mutual_information(BinaryJoint(a=0.25, p=0.5, q=0.5)) == 0.0
        assert mutual_information(BinaryJoint(a=0.06, p=0.2, q=0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_identical_pair_has_entropy_information(self):
        assert mutual_information(BinaryJoint(a=0.5, p=0.5, q=0.5)) == pytest.approx(1.0)
        assert mutual_information(BinaryJoint(a=0.3, p=0.3, q=0.3)) == pytest.approx(H_03, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_bounded_by_marginal_entropies(self, p, q, t):
        lo = max(0.0, p + q - 1.0)
        hi = min(p, q)
        if hi < lo:
            return
        joint = BinaryJoint(a=lo + t * (hi - lo), p=p, q=q)
        info = mutual_information(joint)
        assert 0.0 <= info <= min(binary_entropy(p), binary_entropy(q)) + 1e-9

    def test_joint_rejects_negative_cell(self):
        with pytest.raises(ValueError):
            BinaryJoint(a=0.5, p=0.2, q=0.9)

    def test_expected_distortion(self):
        assert BinaryJoint(a=0.5, p=0.5, q=0.5).expected_distortion() == 0.0
        assert BinaryJoint(a=0.0, p=0.5, q=0.5).expected_distortion() == 1.0


class TestWrapperTypes:
    def test_as_fraction_forms(self):
        assert as_fraction("11/100") == Fraction(11, 100)
        assert as_fraction(0.25) == Fraction(1, 4)
        assert as_fraction((3, 12)) == Fraction(1, 4)
        assert as_fraction(1) == 1
        assert as_fraction(np.float64(0.1)) == Fraction(1, 10)
        assert as_fraction(np.int64(1)) == 1
        with pytest.raises(TypeError):
            as_fraction(True)
        with pytest.raises(TypeError):
            as_fraction(np.bool_(True))
        with pytest.raises(TypeError):
            as_fraction(object())

    def test_source_and_budget_validation(self):
        with pytest.raises(ValueError):
            SourceModel(Fraction(3, 2))
        with pytest.raises(ValueError):
            DistortionBudget(Fraction(-1, 2))
        assert SourceModel.of("1/3").value == pytest.approx(1 / 3)
        assert DistortionBudget.of("11/100").num == 11
        assert DistortionBudget.of("11/100").den == 100

    def test_of_returns_its_own_instance(self):
        sm, db = SourceModel(Fraction(1, 3)), DistortionBudget(Fraction(1, 10))
        assert SourceModel.of(sm) is sm
        assert DistortionBudget.of(db) is db
        with pytest.raises(TypeError):
            DistortionBudget.of(sm)

    def test_type_fraction(self):
        t = TypeFraction(ones=3, length=8)
        assert t.value == 0.375
        assert t.fraction == Fraction(3, 8)
        with pytest.raises(ValueError):
            TypeFraction(ones=9, length=8)
        with pytest.raises(ValueError):
            TypeFraction(ones=0, length=0)
