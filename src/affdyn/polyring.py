"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``nvars`` variables is a finite map from exponent tuples
(one non-negative integer per variable) to nonzero ``Fraction``
coefficients.  The zero polynomial is the empty map.  Coefficients are
exact rationals throughout; nothing in this module touches floating point.

Canonical term order for display and serialization is graded
lexicographic: higher total degree first, ties broken lexicographically on
the exponent tuple.  All values are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple  # tuple[int, ...], one entry per variable


class ZeroPolynomialError(ValueError):
    """Raised by operations that are undefined for the zero polynomial."""


def _grlex_key(exps: Exponents):
    return (sum(exps), exps)


class Polynomial:
    """A sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients; the constructor
    validates exponent lengths, coerces coefficients to ``Fraction`` and
    prunes zeros.  Instances must not be mutated after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        if nvars < 0:
            raise ValueError(f"variable count must be >= 0, got {nvars}")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Internal fast path: ``terms`` must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return cls.zero(nvars)
        return cls._make(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._make(nvars, {exps: Fraction(1)})

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self!s})"

    def __str__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(self)

    def _operand(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected a Polynomial, got {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        return other

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._operand(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, Fraction(0)) + coeff
            if acc:
                out[exps] = acc
            elif exps in out:
                del out[exps]
        return Polynomial._make(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._operand(other)
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        other = self._operand(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.nvars)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(exps, Fraction(0)) + ca * cb
                if acc:
                    out[exps] = acc
                elif exps in out:
                    del out[exps]
        return Polynomial._make(self.nvars, out)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent}")
        if len(self.terms) == 1:  # a monomial: one coefficient power
            (exps, coeff), = self.terms.items()
            return Polynomial._make(
                self.nvars, {tuple(e * exponent for e in exps): coeff**exponent}
            )
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- degree structure ---------------------------------------------

    def total_degree(self) -> int:
        """Maximum exponent sum over all terms; undefined for zero."""
        if self.is_zero:
            raise ZeroPolynomialError("total degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def leading_form(self) -> "Polynomial":
        """Sum of the terms of maximal total degree."""
        d = self.total_degree()
        return Polynomial._make(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    # -- substitution -------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (length must equal ``nvars``)."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        values = [Fraction(v) for v in point]
        powers: dict[tuple[int, int], Fraction] = {}

        def power(i: int, e: int) -> Fraction:
            key = (i, e)
            if key not in powers:
                powers[key] = values[i] ** e
            return powers[key]

        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    term *= power(i, e)
            total += term
        return total

    def compose(self, subs: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute ``subs[i]`` for variable ``i`` and expand fully.

        All substituents must share a common variable count ``m``; the
        result is a polynomial in ``m`` variables.
        """
        if len(subs) != self.nvars:
            raise ValueError(f"expected {self.nvars} substituents, got {len(subs)}")
        if self.nvars == 0:
            return Polynomial._make(0, dict(self.terms))
        m = subs[0].nvars
        for s in subs:
            if s.nvars != m:
                raise ValueError("substituents must share a common variable count")
        # Cache powers of each substituent up to the largest exponent used.
        caches: list[list[Polynomial]] = [[Polynomial.constant(m, 1)] for _ in subs]

        def power(i: int, e: int) -> Polynomial:
            cache = caches[i]
            while len(cache) <= e:
                cache.append(cache[-1] * subs[i])
            return cache[e]

        total = Polynomial.zero(m)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(m, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

