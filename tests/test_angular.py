import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdsr.angular import wigner3j, wigner6j


class TestHalfInteger:
    """Quantum numbers may be any half-integral real numbers."""

    def test_exact_values(self):
        # uncached, so each argument type goes through the conversion
        w3, w6 = wigner3j.__wrapped__, wigner6j.__wrapped__
        assert w3(2, 1, 1, 0, 0, 0) == w3(Fraction(2), 1.0, Fraction(2, 2), 0, 0.0, 0) != 0
        half3 = w3(Fraction(3, 2), Fraction(1, 2), 1, Fraction(1, 2), Fraction(-1, 2), 0)
        assert half3 == w3(1.5, 0.5, 1, 0.5, -0.5, 0) != 0
        half6 = w6(Fraction(1, 2), Fraction(1, 2), 1, 1, 1, Fraction(3, 2))
        assert half6 == w6(0.5, 0.5, 1, 1, 1, 1.5) != 0

    def test_rejects_non_half_integral(self):
        with pytest.raises(ValueError):
            wigner3j(1, 1, 0.3, 0, 0, 0)
        with pytest.raises(ValueError):
            wigner6j(Fraction(1, 3), 1, 1, 1, 1, 1)
        with pytest.raises(TypeError):
            wigner3j(1, 1, 1j, 0, 0, 0)

    def test_wigner_rejects_malformed(self):
        with pytest.raises(ValueError):
            wigner3j(0.4, 1, 1, 0, 0, 0)


class TestWigner3j:
    def test_known_values(self):
        # oracle: exact Racah evaluation (cross-checked against sympy below)
        assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)
        assert wigner3j(1, 2, 3, 0, 0, 0) == pytest.approx(-math.sqrt(3 / 35), abs=1e-15)
        assert wigner3j(0.5, 0.5, 1, 0.5, -0.5, 0) == pytest.approx(1 / math.sqrt(6), abs=1e-15)

    def test_selection_rules(self):
        assert wigner3j(1, 1, 1, 1, 0, 0) == 0.0  # m-sum != 0
        assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
        assert wigner3j(1, 1, 0, 1, -1, 1) == 0.0  # |m3| > j3 -> 0
        assert wigner3j(-1, 1, 1, 0, 0, 0) == 0.0  # negative j -> 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
    def test_matches_sympy(self, tj1, tj2, tj3, data):
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import S

        tms = []
        for tj in (tj1, tj2, tj3):
            tms.append(data.draw(st.integers(-tj, tj).filter(lambda m, tj=tj: (m + tj) % 2 == 0))
                       if tj else 0)
        mine = wigner3j(*(t / 2 for t in (tj1, tj2, tj3, *tms)))
        try:
            ref = float(sympy_wigner.wigner_3j(*(S(t) / 2 for t in (tj1, tj2, tj3, *tms))))
        except ValueError:
            ref = 0.0
        assert mine == pytest.approx(ref, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_even_permutation_invariance(self, tj1, tj2, data):
        tj3 = data.draw(st.integers(abs(tj1 - tj2), tj1 + tj2).filter(
            lambda t: (t + tj1 + tj2) % 2 == 0))
        tm1 = data.draw(st.integers(-tj1, tj1).filter(lambda m: (m + tj1) % 2 == 0)) if tj1 else 0
        tm2 = data.draw(st.integers(-tj2, tj2).filter(lambda m: (m + tj2) % 2 == 0)) if tj2 else 0
        tm3 = -tm1 - tm2
        if abs(tm3) > tj3:
            return
        a = wigner3j(tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2)
        b = wigner3j(tj2 / 2, tj3 / 2, tj1 / 2, tm2 / 2, tm3 / 2, tm1 / 2)
        c = wigner3j(tj3 / 2, tj1 / 2, tj2 / 2, tm3 / 2, tm1 / 2, tm2 / 2)
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx(c, abs=1e-14)

    def test_orthogonality(self):
        # sum over m1 at fixed m3: sum (2 j3 + 1) * 3j^2 = 1, all j <= 3
        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, 6) + 1, 2):
                    for tm3 in range(-tj3, tj3 + 1, 2):
                        total = sum(
                            (tj3 + 1) * wigner3j(tj1 / 2, tj2 / 2, tj3 / 2,
                                                 tm1 / 2, (-tm1 - tm3) / 2, tm3 / 2) ** 2
                            for tm1 in range(-tj1, tj1 + 1, 2)
                            if abs(tm1 + tm3) <= tj2
                        )
                        assert total == pytest.approx(1.0, abs=1e-12)


class TestWigner6j:
    def test_known_values(self):
        assert wigner6j(0.5, 0.5, 1, 0.5, 0.5, 1) == pytest.approx(1 / 6, abs=1e-15)
        assert wigner6j(1, 1, 0, 1, 1, 1) == pytest.approx(-1 / 3, abs=1e-15)

    def test_triangle_violation_is_zero(self):
        assert wigner6j(1, 1, 3, 1, 1, 1) == 0.0
        assert wigner6j(0.5, 0.5, 0.5, 0.5, 0.5, 0.5) == 0.0  # half-integral triads
        assert wigner6j(-1, 1, 1, 1, 1, 1) == 0.0  # negative j -> 0

    def test_unitarity_sum_rule(self):
        # sum_x (2x+1)(2p+1) {1 1 x; 1 1 p}^2 = 1
        for p in (0, 1, 2):
            total = sum((2 * x + 1) * (2 * p + 1) * wigner6j(1, 1, x, 1, 1, p) ** 2
                        for x in range(0, 3))
            assert total == pytest.approx(1.0, abs=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*(st.integers(0, 6) for _ in range(6))))
    def test_matches_sympy(self, tjs):
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import S

        mine = wigner6j(*(t / 2 for t in tjs))
        try:
            ref = float(sympy_wigner.wigner_6j(*(S(t) / 2 for t in tjs)))
        except ValueError:
            ref = 0.0
        assert mine == pytest.approx(ref, abs=1e-13)


@pytest.fixture()
def cold_cache():
    # start with a miss on every call, and do not keep the ~10^5 entries
    wigner3j.cache_clear()
    wigner6j.cache_clear()
    yield
    wigner3j.cache_clear()
    wigner6j.cache_clear()


@pytest.mark.usefixtures("cold_cache")
class TestMemoized:
    # the sympy comparison range: every doubled j in 0..6
    TJ = range(0, 7)

    def test_wigner3j_cache_matches_racah_sum(self):
        for tj1 in self.TJ:
            for tj2 in self.TJ:
                for tj3 in self.TJ:
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            args = tuple(t / 2 for t in (tj1, tj2, tj3, tm1, tm2, -tm1 - tm2))
                            exact = wigner3j.__wrapped__(*args)
                            assert wigner3j(*args) == exact
                            assert wigner3j(*args) == exact  # now served from the cache

    def test_wigner6j_cache_matches_racah_sum(self):
        for tjs in itertools.product(self.TJ, repeat=6):
            args = tuple(t / 2 for t in tjs)
            exact = wigner6j.__wrapped__(*args)
            assert wigner6j(*args) == exact
            assert wigner6j(*args) == exact

    def test_malformed_arguments_raise_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                wigner3j(0.4, 1, 1, 0, 0, 0)
            with pytest.raises(ValueError):
                wigner6j(1, 1, 1, 1, 1, 0.3)
            with pytest.raises(TypeError):
                wigner3j("1", 1, 1, 0, 0, 0)
