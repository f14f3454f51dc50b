"""The generated kernel must agree with the table-interpreter oracle and
with the Fraction-based evaluator, on canonical common-denominator form,
and its source must hold no text from the map."""

import dataclasses
import io
import random
import re
import tokenize
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affdyn import kernel
from affdyn.dynamics import AffineAutomorphism
from affdyn.heights import weil_height_integer
from affdyn.parsing import format_point, parse_map_file, parse_polynomial
from affdyn.polyring import Polynomial

from conftest import bundled_map_text
from oracles import identity, interpret_map, orbit_mod_p, reduce_mod_p, to_fractions


def _canonical(nums, den):
    assert den > 0
    g = den
    for n in nums:
        g = gcd(g, n)
    assert g == 1
    return nums, den


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


_HENON = parse_map_file(bundled_map_text())
_MAPS = st.sampled_from(
    [_HENON.forward, _HENON.inverse, identity(3).forward]
) | st.lists(_wide_polynomials, min_size=1, max_size=3)

RATIONAL_MAP = "vars x y\nforward: y | x + y^2/2\ninverse: y - x^2/2 | x\n"


_FIXED_NAME = re.compile(
    r"def|eval_map|nums|if|else|return|gcd|g|sq|[xdab][0-9]+|x[0-9]+_[0-9]+"
)
_STRUCTURE = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _assert_fixed_tokens(source):
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert _FIXED_NAME.fullmatch(tok.string), tok
        else:
            assert tok.type in _STRUCTURE | {tokenize.NUMBER, tokenize.OP}, tok


def _polynomials(names, *texts):
    return [parse_polynomial(text, names) for text in texts]


# One gcd reduces the whole image: in these examples it removes a high
# power of den, 2^41 under (x, y + x^2), which maps the point to
# ((2^19, 1), 2^39), 2^40 under (x/2, y/2 + x^2/4), whose cleared
# denominators are 2 and 4, and under henon3, and 2^80 under its inverse.
@given(coords=_MAPS, point=_canonical_points())
@example(coords=_polynomials(("x", "y"), "x", "y + x^2"), point=((2**20, 1), 2**40))
@example(coords=_polynomials(("x", "y"), "x/2", "y/2 + x^2/4"), point=((2**20, 1), 2**40))
@example(coords=_HENON.forward, point=((3, 2**20, 2**20), 2**40))
@example(coords=_HENON.inverse, point=((2**20, 2**40, 3), 2**40))
@settings(max_examples=200, deadline=None)
def test_backends_match_fraction_evaluation(coords, point):
    nums, den = point
    cm = kernel.compile_map(coords)
    _assert_fixed_tokens(cm.source)
    image = kernel.eval_point(cm, nums, den)
    _canonical(*image)
    assert image == interpret_map(cm, nums, den)
    point = to_fractions(nums, den)
    assert to_fractions(*image) == tuple(p.evaluate(point) for p in coords)


@pytest.mark.parametrize(
    "coords",
    [_HENON.forward, _HENON.inverse, parse_map_file(RATIONAL_MAP).forward,
     parse_map_file(RATIONAL_MAP).inverse, _polynomials(("x", "y"), "1/2", "-3")],
    ids=["henon3-forward", "henon3-inverse", "rational-forward", "rational-inverse", "constant"],
)
def test_one_gcd_per_rational_image(coords):
    # The generated source, run again with a gcd that counts its calls,
    # reduces each image at a point with a denominator by one gcd call.
    cm = kernel.compile_map(coords)
    calls = []
    namespace = {"__builtins__": {}, "gcd": lambda *args: calls.append(args) or gcd(*args)}
    exec(cm.source, namespace)
    rng = random.Random(len(coords))
    for den in (3, 2**40, 6**30 + 1):
        nums = (1, *(rng.randrange(-den, den) for _ in coords[1:]))
        calls.clear()
        assert namespace["eval_map"](nums, den, None) == cm.eval_map(nums, den, None)
        assert len(calls) == 1
    # Integer points of a map without cleared denominators take no gcd.
    calls.clear()
    namespace["eval_map"]((2, -3, 5)[:len(coords)], 1, None)
    assert len(calls) == (max(cm.denoms) > 1)


def test_common_denominator_form_is_canonical():
    nums, den = kernel.to_common_denominator((Fraction(2, 4), Fraction(-6, 8), 3))
    assert (nums, den) == ((2, -3, 12), 4)
    _canonical(nums, den)


@pytest.mark.parametrize("coordinate", [0.1, "1/3"], ids=["float", "str"])
@pytest.mark.parametrize(
    "call",
    [
        lambda henon, point: henon.orbit(point, 1),
        lambda henon, point: weil_height_integer(point),
        lambda henon, point: format_point(point),
    ],
    ids=["orbit", "weil_height_integer", "format_point"],
)
def test_point_edge_takes_only_int_and_fraction(henon, call, coordinate):
    # 0.1 would be read as the binary float 3602879701896397/2^55, and a
    # string is text, not a coordinate.
    with pytest.raises(TypeError, match=f"coordinate 1 is {type(coordinate).__name__}"):
        call(henon, (1, coordinate, 1))


def test_to_fractions_roundtrip():
    point = (Fraction(5, 3), Fraction(0), Fraction(-7, 2))
    assert to_fractions(*kernel.to_common_denominator(point)) == point


def test_orbit_agrees_between_backends(henon):
    for direction in ("forward", "inverse"):
        cm = henon.compiled(direction)
        for start in ((Fraction(1, 2), Fraction(1), Fraction(-2, 3)), (1, 1, 1)):
            state = oracle = kernel.to_common_denominator(start)
            for _ in range(6):
                state = kernel.eval_point(cm, *state)
                oracle = interpret_map(cm, *oracle)
                assert state == oracle


def test_evaluator_source_holds_no_map_text():
    text = bundled_map_text()
    # Rename x, y, z to names the generated source itself uses.
    renames = {"x": "d1", "y": "gcd", "z": "x0"}
    renamed = re.sub(r"\b[xyz]\b", lambda m: renames[m.group()], text)
    assert renamed != text
    for direction in ("forward", "inverse"):
        sources = [
            kernel.compile_map(getattr(parse_map_file(t), direction)).source
            for t in (text, renamed)
        ]
        assert sources[0] == sources[1]
        _assert_fixed_tokens(sources[0])


def test_compile_map_clears_denominators():
    p = parse_polynomial("1/6*x^2 - 1/4*y", ("x", "y"))
    cm = kernel.compile_map([p])
    assert cm.denoms == (12,)
    assert sorted(cm.terms[0]) == [(-3, (0, 1)), (2, (2, 0))]


def test_max_bits():
    assert kernel.max_bits((0, 7), 1) == 3
    assert kernel.max_bits((-(2**40), 1), 3) == 41


# -- big integers: Schönhage–Strassen squaring and the powers it squares ---


def _rule_changes(low, high):
    """The operand lengths in ``[low, high]`` at which ``square``'s
    transform length 2^k, with k = (bit length of n - 1) // 2, steps up:
    n = 4^k, each with the length below it."""
    return [m for k in range(1, 20) for m in (4**k - 1, 4**k) if low <= m <= high]


def _ones(n):
    return (1 << n) - 1


# At n = 4^k, 2^(k - 1) pieces of 2^(k + 1) bits, whole bytes, fill n
# exactly: all ones give every convolution coefficient its largest value.
_LENGTHS = sorted({kernel.SQUARE_CUTOFF + i for i in (-1, 0, 1)} | set(_rule_changes(1, 4**10)))


@given(n=st.sampled_from(_LENGTHS), fill=st.sampled_from(["random", "ones", "top"]),
       sign=st.sampled_from([1, -1]), data=st.data())
@example(n=0, fill="top", sign=1, data=None)
@example(n=1, fill="top", sign=-1, data=None)
@example(n=4**10, fill="ones", sign=1, data=None)
@example(n=4**10, fill="ones", sign=-1, data=None)
@example(n=4**10 + 1, fill="top", sign=1, data=None)
@example(n=kernel.SQUARE_CUTOFF, fill="ones", sign=-1, data=None)
@example(n=kernel.SQUARE_CUTOFF, fill="top", sign=1, data=None)
@settings(max_examples=30, deadline=None)
def test_square_is_exact(n, fill, sign, data):
    # "top" is the power of two 2^(n-1) (0 for n = 0), "ones" fills every
    # bit, "random" keeps the top bit and draws the rest.
    if fill == "random":
        a = (1 << n - 1) | data.draw(st.integers(0, _ones(n - 1)))
    else:
        a = _ones(n) if fill == "ones" else 1 << n - 1 if n else 0
    a *= sign
    assert kernel.square(a) == a * a


@pytest.mark.parametrize("n", _rule_changes(4**10 + 1, 4**11))
def test_square_of_all_ones_past_a_megabit(n):
    # (2^n - 1)^2 = 2^(2n) - 2^(n+1) + 1 needs no reference product.
    assert kernel.square(-_ones(n)) == (1 << 2 * n) - (1 << n + 1) + 1


@given(n=st.sampled_from(_rule_changes(300, 4**7)) | st.integers(300, 4**7),
       fill=st.sampled_from(["random", "ones"]), data=st.data())
@example(n=4**7, fill="ones", data=None)
@settings(max_examples=60, deadline=None)
def test_square_is_exact_when_the_transform_recurses(n, fill, data):
    # With the cutoff lowered, the rule steps k at every 4^k from 4^5 to
    # 4^7, and the pointwise squares of L bits go through the transform
    # again once L reaches the cutoff.
    a = _ones(n) if fill == "ones" else data.draw(st.integers(1 << n - 1, _ones(n)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "SQUARE_CUTOFF", 300)
        assert kernel.square(a) == a * a


def _bundled(name):
    text = RATIONAL_MAP if name == "rational" else bundled_map_text(name)
    mf = parse_map_file(text)
    return AffineAutomorphism(mf.forward, mf.inverse, mf.names)


@pytest.mark.parametrize("name", ["henon3", "henon4", "henon5", "rational"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_big_evaluation_matches_oracle(name, direction):
    # From square_bits on, the largest squaring of the power block, of
    # x_i^(deg // 2), can reach SQUARE_CUTOFF, and step passes square.
    automorphism = _bundled(name)
    cm = automorphism.compiled(direction)
    half = cm.deg // 2
    assert (cm.square_bits - 1) * half < kernel.SQUARE_CUTOFF <= cm.square_bits * half
    bits = cm.square_bits + 64
    rng = random.Random(f"{name}-{direction}")
    nums = tuple(rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(automorphism.n))
    for den in (1, rng.getrandbits(bits) | 1):
        g = gcd(den, *nums)
        point = tuple(n // g for n in nums), den // g
        image = kernel.eval_point(cm, *point, kernel.square)
        assert image == kernel.eval_point(cm, *point) == interpret_map(cm, *point)


def test_deep_orbit_matches_oracle_point_for_point(henon, monkeypatch):
    squared = []
    square = kernel.square
    monkeypatch.setattr(kernel, "square", lambda a: squared.append(a.bit_length()) or square(a))
    depths = []
    for direction in ("forward", "inverse"):
        result = henon.orbit((1, 1, 1), 64, direction, bit_budget=2**22)
        assert result.truncated
        depths.append(len(result.raw) - 1)
        cm = henon.compiled(direction)
        state = result.raw[0]
        for raw in result.raw[1:]:
            state = interpret_map(cm, *state)
            assert raw == state
    assert tuple(depths) == (22, 15)
    # The transform ran: each squaring from SQUARE_CUTOFF on is followed by
    # its 2^k pointwise squarings, through square itself.
    big = [i for i, bits in enumerate(squared) if bits >= kernel.SQUARE_CUTOFF]
    assert big
    for i in big:
        size = 1 << (squared[i].bit_length() - 1) // 2
        pointwise = squared[i + 1:i + 1 + size]
        assert len(pointwise) == size and max(pointwise) < kernel.SQUARE_CUTOFF


# -- every deep orbit step, by fingerprints mod fixed primes ---------------

# Two primes that divide no denominator of the bundled maps or of the
# starts below, so every exact orbit point reduces mod each of them.
FINGERPRINT_PRIMES = (2**61 - 1, 2**61 - 31)


def first_wrong_step(cm, raws) -> int | None:
    """The first index at which the exact orbit ``raws`` differs, mod one of
    ``FINGERPRINT_PRIMES``, from the orbit of ``raws[0]`` that
    ``orbit_mod_p`` iterates from ``cm``'s terms; None when every step
    agrees."""
    orbits = [(p, orbit_mod_p(cm, *raws[0], len(raws) - 1, p)) for p in FINGERPRINT_PRIMES]
    for k, raw in enumerate(raws):
        if any(reduce_mod_p(*raw, p) != orbit[k] for p, orbit in orbits):
            return k
    return None


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize(
    "name, start",
    [
        ("henon3", (1, 1, 1)),
        ("henon3", (1, Fraction(1, 2), -3)),
        ("henon4", (1,) * 4),
        ("henon5", (1,) * 5),
    ],
    ids=["henon3", "henon3-rational", "henon4", "henon5"],
)
def test_every_deep_orbit_step_matches_its_fingerprints(name, start, direction):
    automorphism = _bundled(name)
    orbit = automorphism.orbit(start, 64, direction)
    assert orbit.truncated  # it ran to the default budget
    assert first_wrong_step(automorphism.compiled(direction), orbit.raw) is None


def assert_fingerprints_catch(cm, raws, exact):
    """The fingerprints of the mutated orbit ``raws`` fail at the first
    step where it leaves the ``exact`` one."""
    wrong = next((k for k, (raw, good) in enumerate(zip(raws, exact)) if raw != good), None)
    assert wrong is not None
    assert first_wrong_step(cm, raws) == wrong


def test_fingerprints_catch_a_wrong_square(monkeypatch):
    # henon3's forward orbit from (1,1,1) squares a 351,872-bit coordinate
    # for its last step, the one squaring past SQUARE_CUTOFF that it keeps.
    automorphism = _bundled("henon3")
    cm = automorphism.compiled("forward")
    exact = automorphism.orbit((1, 1, 1), 64).raw
    square = kernel.square
    flipped = []

    def wrong_square(a):
        if a.bit_length() < kernel.SQUARE_CUTOFF:
            return square(a)
        flipped.append(a.bit_length())
        return square(a) ^ (1 << a.bit_length())

    monkeypatch.setattr(kernel, "square", wrong_square)
    raws = automorphism.orbit((1, 1, 1), 64).raw
    assert flipped
    assert_fingerprints_catch(cm, raws, exact)


def test_fingerprints_catch_a_wrong_evaluator(monkeypatch):
    # The evaluator of henon3's forward map with x's coefficient 2 in its
    # last coordinate; the fingerprints still read the map's own terms.
    automorphism = _bundled("henon3")
    cm = automorphism.compiled("forward")
    exact = automorphism.orbit((1, 1, 1), 64).raw
    mutant = kernel.compile_map(_polynomials(automorphism.names, "y", "z + y^2", "2*x + z^2"))
    wrong = dataclasses.replace(cm, source=mutant.source, eval_map=mutant.eval_map)
    monkeypatch.setattr(automorphism, "compiled", lambda direction: wrong)
    raws = automorphism.orbit((1, 1, 1), 64).raw
    assert_fingerprints_catch(cm, raws, exact)


# -- the bit-length bound behind skipped orbit steps -----------------------


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_exceeds_budget_is_sound(data):
    coords = data.draw(_MAPS)
    nums, den = data.draw(_canonical_points())
    cm = kernel.compile_map(coords)
    bits = kernel.height_integer(*kernel.eval_point(cm, nums, den)).bit_length()
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
