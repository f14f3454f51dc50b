"""The two kernel backends must agree with each other and with the
Fraction-based evaluator, on canonical common-denominator form."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdyn import _kernel_py, kernel
from affdyn.dynamics import AffineAutomorphism
from affdyn.polyring import Polynomial

from conftest import polynomials, small_points

try:
    from affdyn import _speedups
except ImportError:
    _speedups = None

BACKENDS = [_kernel_py] if _speedups is None else [_kernel_py, _speedups]


def _canonical(nums, den):
    assert den > 0
    g = den
    for n in nums:
        g = gcd(g, n)
    assert g == 1
    return nums, den


@given(polynomials(max_exp=3), polynomials(max_exp=3), small_points)
@settings(max_examples=80)
def test_backends_match_fraction_evaluation(p, q, point):
    cm = kernel.compile_map([p, q])
    nums, den = kernel.to_common_denominator(point)
    expected = (p.evaluate(point), q.evaluate(point))
    for backend in BACKENDS:
        out_nums, out_den = backend.eval_map(cm.terms, cm.denoms, cm.degs, cm.max_exps, nums, den)
        _canonical(out_nums, out_den)
        assert kernel.to_fractions(out_nums, out_den) == expected


def test_common_denominator_form_is_canonical():
    nums, den = kernel.to_common_denominator((Fraction(2, 4), Fraction(-6, 8), 3))
    assert (nums, den) == ((2, -3, 12), 4)
    _canonical(nums, den)


def test_to_fractions_roundtrip():
    point = (Fraction(5, 3), Fraction(0), Fraction(-7, 2))
    assert kernel.to_fractions(*kernel.to_common_denominator(point)) == point


def test_normalize_projective():
    assert kernel.normalize_projective((2, 4, -6)) == (1, 2, -3)
    assert kernel.normalize_projective((0, -2, 4)) == (0, 1, -2)
    with pytest.raises(ValueError):
        kernel.normalize_projective((0, 0, 0))


def test_orbit_agrees_between_backends(henon):
    cm = henon.compiled("forward")
    state = kernel.to_common_denominator((Fraction(1, 2), Fraction(1), Fraction(-2, 3)))
    states = [state]
    for _ in range(6):
        states.append(
            _kernel_py.eval_map(cm.terms, cm.denoms, cm.degs, cm.max_exps, *states[-1])
        )
    if _speedups is not None:
        state = states[0]
        for k in range(6):
            state = _speedups.eval_map(cm.terms, cm.denoms, cm.degs, cm.max_exps, *state)
            assert state == states[k + 1]


def test_compile_map_clears_denominators():
    from affdyn.parsing import parse_polynomial

    p = parse_polynomial("1/6*x^2 - 1/4*y", ("x", "y"))
    cm = kernel.compile_map([p])
    assert cm.denoms == (12,)
    assert sorted(cm.terms[0]) == [(-3, (0, 1)), (2, (2, 0))]


def test_max_bits():
    assert kernel.max_bits((0, 7), 1) == 3
    assert kernel.max_bits((-(2**40), 1), 3) == 41


# -- the bit-length bound behind skipped orbit steps -----------------------

_wide_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**3),
    max_size=5,
).map(lambda terms: Polynomial(3, terms))


@st.composite
def _canonical_points(draw):
    nums = draw(st.lists(st.integers(-(2**80), 2**80), min_size=3, max_size=3))
    den = draw(st.just(1) | st.integers(1, 2**40))
    g = gcd(den, *nums)
    return tuple(n // g for n in nums), den // g


def _maps(henon):
    identity = AffineAutomorphism.identity(3)
    return st.sampled_from(
        [henon.forward, henon.inverse, identity.forward]
    ) | st.lists(_wide_polynomials, min_size=1, max_size=3)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_exceeds_budget_is_sound(henon, data):
    coords = data.draw(_maps(henon))
    nums, den = data.draw(_canonical_points())
    cm = kernel.compile_map(coords)
    bits = kernel.max_bits(*kernel.eval_point(cm, nums, den))
    # Budgets from a little under the image's size (where the bound should
    # fire) to at or over it (where firing would be wrong).
    budget = max(1, bits + data.draw(st.integers(-8, 8)))
    if kernel.exceeds_budget(cm, nums, den, budget):
        assert bits > budget


def test_exceeds_budget_sees_dominant_terms_only(henon):
    cm = henon.compiled("forward")
    # f(0, 0, 200) = (0, 200, 40000): z^2 alone proves 40000 > 2^8.
    assert kernel.exceeds_budget(cm, (0, 0, 200), 1, 8)
    # f(0, 0, 16) = (0, 16, 256): the bound gives only 256 >= 2^8.
    assert not kernel.exceeds_budget(cm, (0, 0, 16), 1, 8)
    # f(-(2^60), 0, 2^30) = (0, 2^30, 0): x and z^2 cancel exactly.
    assert not kernel.exceeds_budget(cm, (-(2**60), 0, 2**30), 1, 40)
    # x - 7 (y1 + ... + y5) at x = 2^20, sum(y) = 149796 is 4: each small
    # term is below 2^18, a quarter of x, but five of them nearly cancel it.
    terms = {(1, 0, 0, 0, 0, 0): 1}
    terms.update({tuple(int(i == k) for i in range(6)): -7 for k in range(1, 6)})
    cm = kernel.compile_map([Polynomial(6, terms)])
    point = (2**20, 29960, 29959, 29959, 29959, 29959)
    assert kernel.eval_point(cm, point, 1) == ((4,), 1)
    assert not kernel.exceeds_budget(cm, point, 1, 3)
