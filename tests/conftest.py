import contextlib
import dataclasses
import importlib.resources
import json
import os
import signal
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from affdyn import kernel
from affdyn.divisors import ResolutionDatum, load_datum
from affdyn.dynamics import AffineAutomorphism, _constraint_forms, _spans_all_monomials
from affdyn.parsing import parse_map_file, parse_polynomial
from affdyn.polyring import Polynomial

from oracles import dense_spans_all_monomials


def indented(report: bytes) -> bytes:
    """A JSON report in the indented layout reports had before they were
    written compact: the payload alone decides these bytes."""
    return (json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n").encode()


DATA = importlib.resources.files("affdyn") / "data"

# The shipped ledger of the degree-2 Henon automorphism of affine 3-space:
# the forward side, then the inverse side.
LEDGER_PATHS = (
    DATA / "henon3_resolution_forward.json",
    DATA / "henon3_resolution_inverse.json",
)


def bundled_map_text(name: str = "henon3") -> str:
    return (DATA / f"{name}.map").read_text()


def bundled_ledger() -> tuple[ResolutionDatum, ResolutionDatum]:
    forward, inverse = (load_datum(path) for path in LEDGER_PATHS)
    return forward, inverse


@pytest.fixture(scope="session")
def henon() -> AffineAutomorphism:
    mf = parse_map_file(bundled_map_text())
    return AffineAutomorphism(mf.forward, mf.inverse, mf.names)


@pytest.fixture(scope="session")
def triangular() -> AffineAutomorphism:
    names = ("x", "y")
    forward = tuple(parse_polynomial(s, names) for s in ("x + y^2", "y"))
    inverse = tuple(parse_polynomial(s, names) for s in ("x - y^2", "y"))
    return AffineAutomorphism(forward, inverse, names)


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to ``kernel.<name>``: each
    ``eval_point`` call is one evaluation, each ``height_integer`` call one
    scan over the integers of a raw point."""
    calls = []
    original = getattr(kernel, name)
    monkeypatch.setattr(kernel, name, lambda *args: calls.append(args) or original(*args))
    return calls


def count_eval_height(monkeypatch, calls: list, *automorphisms) -> list:
    """Record in ``calls`` the arguments of every ``eval_height`` call on
    the two compiled maps of each of ``automorphisms``, and return it.
    ``batch_verify`` evaluates a sample point below its gate through
    ``eval_height`` and any other through ``kernel.step``, so a list that
    counts both ``eval_point`` and ``eval_height`` counts every
    evaluation, and one that counts both ``height_integer`` and
    ``eval_height`` every height measured."""
    for automorphism in automorphisms:
        maps = {}
        for direction in ("forward", "inverse"):
            cm = automorphism.compiled(direction)
            counted = lambda *args, f=cm.eval_height: calls.append(args) or f(*args)
            maps[direction] = dataclasses.replace(cm, eval_height=counted)
        monkeypatch.setattr(automorphism, "compiled", maps.__getitem__)
    return calls


# -- the forked worker of kernel._in_order ----------------------------------


def started_workers(monkeypatch, fork: bool | None) -> list:
    """Force the fork predicate on or off (``None`` leaves it as it is)
    and return the list that collects every worker started."""
    if fork is not None:
        monkeypatch.setattr(kernel, "_fork_allowed", lambda: fork)
    started = []

    class Counted(kernel._Worker):
        def __init__(self, *args):
            started.append(self)  # in the parent: the worker never returns
            super().__init__(*args)

    monkeypatch.setattr(kernel, "_Worker", Counted)
    return started


def assert_no_child_left():
    """No child process of this one is running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int = 60):
    """Raise ``TimeoutError`` in this process after ``seconds``, so that a
    wait on a worker fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_sparse_rank_matches_dense(automorphism: AffineAutomorphism) -> None:
    """The sparse elimination of ``is_regular`` and the dense oracle agree
    on whether the Macaulay rows span every monomial, at each target
    degree from the largest form degree up to the first that saturates,
    or up to the Macaulay bound when none does."""
    forms = _constraint_forms(automorphism.forward, automorphism.d)
    forms += _constraint_forms(automorphism.inverse, automorphism.d_inv)
    cm = kernel.compile_map(forms)
    n = automorphism.n
    for target in range(cm.deg, n * (cm.deg - 1) + 2):
        spans = _spans_all_monomials(cm, n, target)
        assert spans == dense_spans_all_monomials(cm, n, target), target
        if spans:
            break


# -- hypothesis strategies ------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
)

small_points = st.tuples(small_fractions, small_fractions, small_fractions)


def polynomials(nvars: int = 3, max_exp: int = 2, max_terms: int = 4):
    exponents = st.tuples(*([st.integers(0, max_exp)] * nvars))
    coeffs = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2
    )
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(nvars, terms)
    )


def nonzero_polynomials(nvars: int = 3, max_exp: int = 2, max_terms: int = 4):
    return polynomials(nvars, max_exp, max_terms).filter(lambda p: not p.is_zero)
