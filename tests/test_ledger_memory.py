"""A ledger run keeps few bytes per pair: the valid data share one empty
``ValidationReport``, the effective pairs one ``EffectivityResult``, the
pairs of one label pair one combined ``PicBasis``, and equal coefficients
of D one ``Fraction``."""

import gc
import random
import tracemalloc

from affdyn.divisors import check_effective, combine_resolutions, compute_D, validate_resolution

from test_divisors import random_valid_pair

PAIRS = 2_000

# Bytes retained per valid pair, as tracemalloc counts them on 64-bit
# CPython 3.11: the pair's entry in the kept list, the (reports, D,
# verdict) tuple and the tuple of its two reports, and D, a DivisorClass
# with its tuple of coefficients.  The reports, the verdict, D's basis and
# its coefficients are shared, so they count nothing.  That is about 282
# bytes, against about 554 when each pair kept its own two empty reports,
# its own verdict and its own combined basis.
RETAINED_BYTES_PER_PAIR = 400


def ledger_results(pairs):
    kept = []
    for forward, inverse in pairs:
        reports = (validate_resolution(forward), validate_resolution(inverse))
        divisor = compute_D(combine_resolutions(forward, inverse))
        kept.append((reports, divisor, check_effective(divisor)))
    return kept


def test_ledger_results_retain_few_bytes():
    rng = random.Random(2718)
    pairs = [random_valid_pair(rng) for _ in range(PAIRS)]
    ledger_results(pairs)  # warm-up: the combined-basis and coefficient caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = ledger_results(pairs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == PAIRS
    assert all(verdict.effective for _, _, verdict in kept)
    assert retained / PAIRS < RETAINED_BYTES_PER_PAIR
