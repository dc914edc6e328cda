import math

import pytest

from mdsr.levels import (
    REDUCED_DIPOLE_CM,
    Manifold,
    Sublevel,
    build_level_scheme,
    relative_dipole,
    zeeman_shift,
)
from mdsr.validate import restrict_scheme


def s(man, m):
    return Sublevel(man, m)


class TestSublevel:
    def test_rejects_m_beyond_f(self):
        with pytest.raises(ValueError):
            Sublevel(Manifold.G1, 2)
        with pytest.raises(ValueError):
            Sublevel(Manifold.E2, -3)

    def test_labels(self):
        assert str(s(Manifold.G1, -1)) == "a_-1"
        assert str(s(Manifold.G2, 0)) == "b_+0"
        assert str(s(Manifold.E2, 2)) == "c_+2"


class TestZeeman:
    def test_g_factors(self):
        assert Manifold.G1.g_factor == -0.5
        assert Manifold.G2.g_factor == 0.5
        assert float(Manifold.E1.g_factor) == pytest.approx(-1 / 6)
        assert float(Manifold.E2.g_factor) == pytest.approx(1 / 6)

    def test_shift_values_at_150_mG(self):
        assert zeeman_shift(s(Manifold.G2, 1), 0.15) == pytest.approx(0.10497, abs=1e-5)
        assert zeeman_shift(s(Manifold.G1, 1), 0.15) == pytest.approx(-0.10497, abs=1e-5)

    def test_m_zero_is_unshifted(self):
        for man in Manifold:
            assert zeeman_shift(s(man, 0), 0.7) == 0.0

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            zeeman_shift(s(Manifold.G1, 1), -0.1)


class TestRelativeDipole:
    def test_forbidden_transition_zeros(self):
        assert relative_dipole(s(Manifold.G2, 0), s(Manifold.E2, 0), 0) == 0.0
        assert relative_dipole(s(Manifold.G1, 0), s(Manifold.E1, 0), 0) == 0.0

    def test_pi_ladder_ratios(self):
        amps = [abs(relative_dipole(s(Manifold.G2, m), s(Manifold.E2, m), 0))
                for m in range(-2, 3)]
        assert amps == pytest.approx([1.0, 0.5, 0.0, 0.5, 1.0], abs=1e-14)

    def test_two_to_one_coupling_ratio(self):
        strong = relative_dipole(s(Manifold.G2, -2), s(Manifold.E2, -2), 0)
        weak = relative_dipole(s(Manifold.G2, -1), s(Manifold.E2, -1), 0)
        assert abs(strong) / abs(weak) == pytest.approx(2.0, abs=1e-14)

    def test_sigma_minus_probe_ladder(self):
        # frozen from the independent 3j/6j tabulation (sympy oracle)
        assert abs(relative_dipole(s(Manifold.G1, -1), s(Manifold.E2, -2), -1)) == \
            pytest.approx(math.sqrt(6) / 2, abs=1e-14)
        assert abs(relative_dipole(s(Manifold.G1, 0), s(Manifold.E2, -1), -1)) == \
            pytest.approx(math.sqrt(3) / 2, abs=1e-14)
        assert abs(relative_dipole(s(Manifold.G1, 1), s(Manifold.E2, 0), -1)) == \
            pytest.approx(0.5, abs=1e-14)

    def test_selection_rules_exact_zero(self):
        assert relative_dipole(s(Manifold.G1, 0), s(Manifold.E2, 1), 0) == 0.0  # dm != q
        assert relative_dipole(s(Manifold.G1, -1), s(Manifold.E2, 1), 1) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            relative_dipole(s(Manifold.G1, 0), s(Manifold.E2, 0), 2)
        with pytest.raises(ValueError):
            relative_dipole(s(Manifold.E2, 0), s(Manifold.G1, 0), 0)


class TestLevelScheme:
    def test_counts(self):
        assert build_level_scheme(0.0).dim == 13
        assert build_level_scheme(0.0, include_e1=True).dim == 16

    def test_zero_field_shifts(self):
        scheme = build_level_scheme(0.0)
        assert all(v == 0.0 for v in scheme.zeeman.values())

    def test_coupling_entries_obey_selection_rules(self):
        scheme = build_level_scheme(0.15, include_e1=True)
        for (lo, up, q), amp in scheme.couplings.items():
            assert up.m - lo.m == q
            assert abs(up.manifold.f - lo.manifold.f) <= 1
            assert amp != 0.0

    def test_excited_sum_rule_uniform_within_manifold(self):
        scheme = build_level_scheme(0.0, include_e1=True)
        sums = {}
        for (_lo, up, _q), amp in scheme.couplings.items():
            sums[up] = sums.get(up, 0.0) + amp * amp
        for man in (Manifold.E1, Manifold.E2):
            vals = [sums[lvl] for lvl in scheme.manifold_levels(man)]
            for v in vals:
                assert v == pytest.approx(vals[0], rel=1e-12)

    def test_index_is_position_in_sublevels(self):
        for include_e1 in (False, True):
            scheme = build_level_scheme(0.15, include_e1=include_e1)
            for i, lvl in enumerate(scheme.sublevels):
                assert scheme.index(Sublevel(lvl.manifold, lvl.m)) == i
        with pytest.raises(ValueError, match="not in the level scheme"):
            build_level_scheme(0.15).index(s(Manifold.E1, 0))

    def test_reduced_dipole_is_the_d1_constant(self):
        scheme = build_level_scheme(0.15, include_e1=True)
        sub = restrict_scheme(scheme, scheme.manifold_levels(Manifold.G1))
        assert scheme.reduced_dipole == REDUCED_DIPOLE_CM
        assert sub.reduced_dipole == REDUCED_DIPOLE_CM

    def test_immutable_sharing(self):
        scheme = build_level_scheme(0.15)
        with pytest.raises(AttributeError):
            scheme.zeeman = {}
