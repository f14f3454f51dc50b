import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from affdyn.divisors import (
    DatumError,
    DivisorClass,
    EffectivityResult,
    PicBasis,
    PushforwardMap,
    ResolutionDatum,
    ValidationReport,
    check_effective,
    check_pushpull_identity,
    combine_resolutions,
    compute_D,
    datum_from_dict,
    find_essential,
    validate_resolution,
)

from conftest import LEDGER_PATHS, bundled_ledger

F = Fraction

EXPECTED_D = (
    F(7, 8), F(3, 8), F(3, 4), F(1, 4), F(1, 2), F(0),
    F(3, 8), F(3, 4), F(1, 4), F(0), F(1, 8), F(1, 4), F(0),
)


@pytest.fixture(scope="module")
def dataset():
    return bundled_ledger()


class TestValidate:
    def test_bundled_tables_pass(self, dataset):
        forward, inverse = dataset
        assert validate_resolution(forward).ok
        assert validate_resolution(inverse).ok

    def test_essential_map_coefficient_violation(self, dataset):
        forward, _ = dataset
        b = list(forward.b)
        b[5] = 2
        report = validate_resolution(replace(forward, b=tuple(b)))
        assert [v.law for v in report.violations] == ["essential-map-coefficient"]

    def test_inverse_side_tight_inequality(self, dataset):
        _, inverse = dataset
        # F7 satisfies degree_other * b = 2 * 1 = 2 = a exactly
        assert inverse.degree_other * inverse.b[7] == inverse.a[7]
        assert validate_resolution(inverse).ok

    def test_every_law_detected(self, dataset):
        forward, _ = dataset
        cases = {
            "blowdown-normalization": replace(forward, a=(2,) + forward.a[1:]),
            "map-degree": replace(forward, b=(3,) + forward.b[1:]),
            "essential-blowdown-coefficient": replace(
                forward, a=forward.a[:5] + (3,)
            ),
            "map-positivity": replace(
                forward,
                b=forward.b[:1] + (0,) + forward.b[2:],
                a=forward.a[:1] + (0,) + forward.a[2:],
            ),
            "blowdown-nonnegativity": replace(forward, a=forward.a[:1] + (-1,) + forward.a[2:]),
            "effectivity-inequality": replace(forward, a=forward.a[:1] + (5,) + forward.a[2:]),
        }
        for law, datum in cases.items():
            laws = {v.law for v in validate_resolution(datum).violations}
            assert law in laws, law


class TestEssential:
    def test_bundled_indices(self, dataset):
        forward, inverse = dataset
        assert find_essential(forward.b, forward.pushforward) == 5
        assert forward.basis.labels[5] == "E5"
        assert find_essential(inverse.b, inverse.pushforward) == 4
        assert inverse.basis.labels[4] == "F4"

    def test_all_zero_pushforward_is_an_error(self, dataset):
        forward, _ = dataset
        with pytest.raises(DatumError):
            find_essential(forward.b, PushforwardMap((0,) * 6))

    def test_multiple_candidates_is_an_error(self, dataset):
        forward, _ = dataset
        with pytest.raises(DatumError):
            find_essential((2, 1, 1, 2, 2, 1), PushforwardMap((0, 1, 0, 0, 0, 1)))


class TestPushPull:
    def test_bundled_identity(self, dataset):
        for datum in dataset:
            assert check_pushpull_identity(datum)

    def test_two_nonzero_multiples_fail(self, dataset):
        forward, _ = dataset
        two = PushforwardMap((0, 1, 0, 0, 0, 1))
        assert not check_pushpull_identity(replace(forward, pushforward=two))

    def test_hyperplane_slot_must_vanish(self):
        with pytest.raises(DatumError):
            PushforwardMap((1, 0, 0))


class TestCombine:
    def test_blocks_match_the_combined_display(self, dataset):
        combined = combine_resolutions(*dataset)
        psi = combined.inverse_pullback.coeffs
        assert psi[0] == 4
        assert psi[1:6] == (4, 8, 8, 16, 16)  # 4 * blowdown E-block
        assert psi[6:] == (2, 4, 2, 1, 1, 2, 1)  # inverse-side map pullback
        phi = combined.forward_pullback.coeffs
        assert phi[0] == 2
        assert phi[1:6] == (1, 2, 1, 2, 1)
        assert phi[6:] == (2, 4, 4, 4, 2, 4, 4)  # 2 * blowdown F-block
        pi = combined.blowdown_pullback.coeffs
        assert pi == (1, 1, 2, 2, 4, 4, 1, 2, 2, 2, 1, 2, 2)

    def test_degree_mismatch_rejected(self, dataset):
        forward, inverse = dataset
        with pytest.raises(DatumError):
            combine_resolutions(forward, replace(inverse, degree_other=3))

    def test_degenerate_degree_one_pair(self):
        basis_e = PicBasis(("H", "E1"))
        basis_f = PicBasis(("H", "F1"))
        forward = ResolutionDatum("forward", 1, 1, basis_e, (1, 1), (1, 1), 1)
        inverse = ResolutionDatum("inverse", 1, 1, basis_f, (1, 1), (1, 1), 1)
        divisor = compute_D(combine_resolutions(forward, inverse))
        assert all(c == 0 for c in divisor.coeffs)


class TestComputeD:
    def test_exact_reproduction(self, dataset):
        divisor = compute_D(combine_resolutions(*dataset))
        assert divisor.coeffs == EXPECTED_D
        assert divisor.basis.labels == (
            "H", "E1", "E2", "E3", "E4", "E5", "F1", "F2", "F3", "F4", "F5", "F6", "F7",
        )

    def test_closed_forms(self, dataset):
        forward, inverse = dataset
        combined = combine_resolutions(forward, inverse)
        divisor = compute_D(combined)
        d, d_inv = combined.d, combined.d_inv
        assert divisor.coeffs[0] == 1 - F(1, d * d_inv)
        for i in range(1, forward.basis.rank):
            expected = F(d_inv * forward.b[i] - forward.a[i], d * d_inv)
            assert divisor.coeffs[i] == (0 if i == forward.t else expected)
            if i == forward.t:
                assert expected == 0
        offset = forward.basis.rank - 1
        for j in range(1, inverse.basis.rank):
            expected = F(d * inverse.b[j] - inverse.a[j], d * d_inv)
            assert divisor.coeffs[offset + j] == (0 if j == inverse.t else expected)

    def test_essential_coefficients_vanish(self, dataset):
        forward, inverse = dataset
        divisor = compute_D(combine_resolutions(forward, inverse))
        # The combined basis is H, the forward exceptionals, then the inverse ones.
        assert divisor.coeffs[forward.t] == 0
        assert divisor.coeffs[forward.basis.rank - 1 + inverse.t] == 0

    def test_mutated_table_loses_effectivity(self, dataset):
        forward, inverse = dataset
        mutated = replace(forward, a=forward.a[:3] + (9,) + forward.a[4:])
        divisor = compute_D(combine_resolutions(mutated, inverse))
        assert divisor.coeffs[3] == F(4 * 1 - 9, 8)
        result = check_effective(divisor)
        assert not result.effective and result.first_negative == "E3"


class TestEffective:
    def test_bundled(self, dataset):
        assert check_effective(compute_D(combine_resolutions(*dataset))).effective

    def test_zero_class(self):
        basis = PicBasis(("H", "E1"))
        assert check_effective(DivisorClass(basis, (0, 0))).effective


class TestBasisConsistency:
    def test_label_permutation_permutes_coefficients(self, dataset):
        forward, inverse = dataset
        perm = [0, 3, 1, 2, 5, 4]  # fix H, shuffle E1..E5
        permuted = ResolutionDatum(
            side=forward.side,
            degree_own=forward.degree_own,
            degree_other=forward.degree_other,
            basis=PicBasis(tuple(forward.basis.labels[i] for i in perm)),
            a=tuple(forward.a[i] for i in perm),
            b=tuple(forward.b[i] for i in perm),
            t=perm.index(forward.t),
            pushforward=PushforwardMap(
                tuple(forward.pushforward.multiples[i] for i in perm)
            ),
        )
        assert validate_resolution(permuted).ok
        base = compute_D(combine_resolutions(forward, inverse))
        shuffled = compute_D(combine_resolutions(permuted, inverse))
        for label in base.basis.labels:
            i = base.basis.labels.index(label)
            j = shuffled.basis.labels.index(label)
            assert base.coeffs[i] == shuffled.coeffs[j]


class TestSharedResults:
    """Repeated results are shared instances: one empty report, one
    effective verdict, one combined basis per pair of label tuples.  Each
    class is frozen, so a shared instance equals a fresh one."""

    def test_valid_data_share_one_empty_report(self, dataset):
        forward, inverse = dataset
        report = validate_resolution(forward)
        assert report == ValidationReport(()) and report.ok
        assert validate_resolution(inverse) is report

    def test_violations_get_their_own_report(self, dataset):
        forward, _ = dataset
        first = validate_resolution(replace(forward, a=(2,) + forward.a[1:]))
        second = validate_resolution(replace(forward, b=(3,) + forward.b[1:]))
        assert [v.law for v in first.violations] == ["blowdown-normalization"]
        assert [v.law for v in second.violations] == ["map-degree"]
        assert first is not second
        assert validate_resolution(forward) is not first
        assert validate_resolution(forward) == ValidationReport(())

    def test_effective_verdicts(self, dataset):
        forward, inverse = dataset
        shared = check_effective(compute_D(combine_resolutions(forward, inverse)))
        assert shared == EffectivityResult(True) and shared.first_negative is None
        assert check_effective(DivisorClass(PicBasis(("H", "E1")), (0, 0))) is shared
        # E2 and E3 go negative: (4*2 - 9)/8 and (4*1 - 9)/8.
        mutated = replace(forward, a=forward.a[:2] + (9, 9) + forward.a[4:])
        verdict = check_effective(compute_D(combine_resolutions(mutated, inverse)))
        assert verdict == EffectivityResult(False, "E2")

    def test_one_label_pair_gives_one_basis(self, dataset):
        forward, inverse = dataset
        first = combine_resolutions(forward, inverse)
        mutated = replace(forward, a=forward.a[:3] + (9,) + forward.a[4:])
        second = combine_resolutions(mutated, inverse)
        assert second.basis == first.basis and second.basis is first.basis
        assert second.blowdown_pullback != first.blowdown_pullback

    def test_shared_label_raises_on_every_call(self):
        forward = ResolutionDatum("forward", 1, 1, PicBasis(("H", "E1")), (1, 1), (1, 1), 1)
        inverse = ResolutionDatum("inverse", 1, 1, PicBasis(("H", "E1")), (1, 1), (1, 1), 1)
        for _ in range(2):
            with pytest.raises(DatumError, match="duplicate divisor label"):
                combine_resolutions(forward, inverse)


# -- randomized equivalence (small here; the acceptance suite scales it up) --


def random_valid_datum(rng, side, own, other, k, prefix):
    t = rng.randint(1, k)
    b = [own] + [rng.randint(1, 5) for _ in range(k)]
    b[t] = 1
    a = [1] + [rng.randint(0, other * bi) for bi in b[1:]]
    a[t] = other
    labels = ("H",) + tuple(f"{prefix}{i}" for i in range(1, k + 1))
    s = [0] * (k + 1)
    s[t] = 1
    return ResolutionDatum(
        side, own, other, PicBasis(labels), tuple(a), tuple(b), t, PushforwardMap(tuple(s))
    )


def random_valid_pair(rng):
    d = rng.randint(1, 5)
    d_inv = rng.randint(1, 5)
    forward = random_valid_datum(rng, "forward", d, d_inv, rng.randint(1, 6), "E")
    inverse = random_valid_datum(rng, "inverse", d_inv, d, rng.randint(1, 6), "F")
    return forward, inverse


def violate_one_law(rng, datum):
    """Mutate exactly one ledger law, leaving every other law intact.

    The essential-index equalities are only mutated in the directions that
    do not collaterally break the effectivity inequality at that index,
    so each case is a genuine single-constraint violation.
    """
    law = rng.choice(
        [
            "blowdown-normalization",
            "map-degree",
            "essential-map-coefficient",
            "essential-blowdown-coefficient",
            "map-positivity",
            "blowdown-nonnegativity",
            "effectivity-inequality",
        ]
    )
    a, b = list(datum.a), list(datum.b)
    t = datum.t
    others = [i for i in range(1, datum.basis.rank) if i != t]
    if law == "blowdown-normalization":
        a[0] = rng.choice([0, 2, 3])
    elif law == "map-degree":
        b[0] = datum.degree_own + rng.randint(1, 3)
    elif law == "essential-map-coefficient":
        b[t] = rng.randint(2, 5)
    elif law == "essential-blowdown-coefficient":
        if datum.degree_other == 1:
            a[t] = 0
        else:
            a[t] = rng.randint(0, datum.degree_other - 1)
    elif law == "map-positivity":
        if not others:
            return None
        i = rng.choice(others)
        b[i] = 0
        a[i] = 0
    elif law == "blowdown-nonnegativity":
        if not others:
            return None
        i = rng.choice(others)
        a[i] = -rng.randint(1, 4)
    elif law == "effectivity-inequality":
        if not others:
            return None
        i = rng.choice(others)
        a[i] = datum.degree_other * b[i] + rng.randint(1, 4)
    return law, replace(datum, a=tuple(a), b=tuple(b))


def test_random_valid_pairs_give_effective_D():
    rng = random.Random(20240817)
    for _ in range(400):
        forward, inverse = random_valid_pair(rng)
        assert validate_resolution(forward).ok and validate_resolution(inverse).ok
        assert check_pushpull_identity(forward) and check_pushpull_identity(inverse)
        divisor = compute_D(combine_resolutions(forward, inverse))
        assert check_effective(divisor).effective


def test_single_violations_break_effectivity_iff_inequality():
    rng = random.Random(97)
    seen = set()
    trials = 0
    while trials < 400:
        forward, inverse = random_valid_pair(rng)
        mutate_forward = rng.random() < 0.5
        outcome = violate_one_law(rng, forward if mutate_forward else inverse)
        if outcome is None:
            continue
        law, mutated = outcome
        trials += 1
        seen.add(law)
        report = validate_resolution(mutated)
        assert {v.law for v in report.violations} == {law}
        pair = (mutated, inverse) if mutate_forward else (forward, mutated)
        effective = check_effective(compute_D(combine_resolutions(*pair))).effective
        assert effective == (law != "effectivity-inequality")
    assert seen == {
        "blowdown-normalization",
        "map-degree",
        "essential-map-coefficient",
        "essential-blowdown-coefficient",
        "map-positivity",
        "blowdown-nonnegativity",
        "effectivity-inequality",
    }


def closed_form(forward, inverse):
    """D from its closed forms alone: ``1 - 1/(d d')`` on H, then
    ``(d' b_i - a_i)/(d d')`` on the forward block and the mirror image
    ``(d b_j - a_j)/(d d')`` on the inverse block."""
    d, d_inv = forward.degree_own, inverse.degree_own
    dd = d * d_inv
    return (
        1 - F(1, dd),
        *(F(d_inv * b - a, dd) for a, b in zip(forward.a[1:], forward.b[1:])),
        *(F(d * b - a, dd) for a, b in zip(inverse.a[1:], inverse.b[1:])),
    )


def test_compute_D_matches_the_closed_forms_on_random_pairs():
    rng = random.Random(3141)
    degrees, verdicts = set(), set()
    for trial in range(600):
        forward, inverse = random_valid_pair(rng)
        if trial % 2:
            outcome = violate_one_law(rng, forward if trial % 4 == 1 else inverse)
            if outcome is not None:
                mutated = outcome[1]
                forward, inverse = (
                    (mutated, inverse) if mutated.side == "forward" else (forward, mutated)
                )
        degrees.add(min(forward.degree_own, inverse.degree_own))
        divisor = compute_D(combine_resolutions(forward, inverse))
        expected = closed_form(forward, inverse)
        assert divisor.coeffs == expected
        assert all(type(c) is Fraction for c in divisor.coeffs)
        negative = [label for label, c in zip(divisor.basis.labels, expected) if c < 0]
        result = check_effective(divisor)
        assert result.effective == (not negative)
        assert result.first_negative == (negative[0] if negative else None)
        verdicts.add(result.effective)
    assert 1 in degrees and verdicts == {True, False}


# One field of the bundled forward datum replaced by a value of the wrong
# JSON type: each must raise DatumError, not slip through int() or str().
MALFORMED = [
    pytest.param("labels", 5, id="labels-int"),
    pytest.param("labels", ["H", "E1", "E2", "E3", "E4", 5], id="labels-int-entry"),
    pytest.param("pushforward", [], id="pushforward-empty"),
    pytest.param("pushforward", [0, 0, 0, 0, 0, 1.0], id="pushforward-float-entry"),
    pytest.param("essential_index", 1.7, id="essential-float"),
    pytest.param("essential_index", "5", id="essential-string"),
    pytest.param("essential_index", True, id="essential-bool"),
    pytest.param("degree_own", 2.0, id="degree-float"),
    pytest.param("map_pullback", [2, 1, 2, 1, 2, "1"], id="map-string-entry"),
    pytest.param("blowdown_pullback", 1, id="blowdown-int"),
]


def bundled_forward_dict() -> dict:
    return json.loads(LEDGER_PATHS[0].read_text())


class TestDatumFiles:
    def test_roundtrip(self, dataset):
        forward, _ = dataset
        assert datum_from_dict(bundled_forward_dict()) == forward

    def test_unknown_keys_rejected(self):
        data = bundled_forward_dict()
        data["extra"] = 1
        with pytest.raises(DatumError):
            datum_from_dict(data)

    def test_missing_keys_rejected(self):
        data = bundled_forward_dict()
        del data["map_pullback"]
        with pytest.raises(DatumError):
            datum_from_dict(data)

    @pytest.mark.parametrize("field, value", MALFORMED)
    def test_malformed_fields_rejected(self, field, value):
        data = bundled_forward_dict()
        data[field] = value
        with pytest.raises(DatumError):
            datum_from_dict(data)

    @pytest.mark.parametrize("data", [5, [], "datum", None])
    def test_top_level_must_be_an_object(self, data):
        with pytest.raises(DatumError):
            datum_from_dict(data)
