"""Exact multivariate Laurent polynomials and truncated power series.

Three exact term tables cover everything the fixed-point computations
need, each built in one call from its {exponent: coeff} table:

* `Character`: integer Laurent polynomials in the two torus variables
  t1, t2 and framing variables e1..er.  A term is keyed by its exponent
  vector (a, b, (c1, .., cr)).
* `TPolynomial`: integer polynomials in a single variable t with
  nonnegative exponents, used for Poincare polynomials.
* `QSeries`: power series in q truncated at a fixed order, with integer
  q-exponents and one {t-degree: coeff} table per power of q.

Morse indexes count the negative-weight terms of a Character in one of two
chambers of the torus, `main_ordering` and `ale_ordering`.  Each maps a
framing vector to its forms, linear in the t-exponents, and `form_sign`
reads a term's sign off them: that of the first form nonzero at the term.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

Exponent = tuple[int, int, tuple[int, ...]]
# (u, v, w): the linear form u*x + v*y + w in the exponents x of t1 and y of t2
Forms = tuple[tuple[int, int, int], ...]
# a chamber of the torus: the forms, in priority order, at each framing vector
Ordering = Callable[[tuple[int, ...]], Forms]


def _integers(values) -> tuple[int, ...]:
    """`values` as a tuple, or ValueError if one of them is not an int (a bool is not).

    Constructors check structure but convert nothing, so outside data
    (JSON records, diagram rows, k-strings) passes through here on its way in.
    """
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"expected integers, got {x!r}")
    return values


def _rational(value) -> Fraction:
    """`value` as an exact Fraction: an int, a Fraction or exact text such as "1/2".

    Anything else, a float or a bool included, is a ValueError, never a
    rounded answer.
    """
    if not (type(value) is int or isinstance(value, (Fraction, str))):
        raise ValueError(f"expected an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"expected an exact rational, got {value!r}") from None


class _Frozen:
    """Base of the immutable records: their fields are their `__slots__`.

    A subclass checks its arguments in `__init__` and stores each field with
    `object.__setattr__`; after that no attribute can be set or deleted.
    Records are equal when they are of one class with equal fields, hash as
    their field tuple, print as a dataclass does, and pickle and copy back
    through the constructor, so a copy is checked again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable, cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable, cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Character:
    """An exact Laurent polynomial in t1, t2, e1..er with integer coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, int] | None = None):
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        self.rank = rank
        # a copy of the caller's table, checked in one pass and filtered only when needed
        clean: dict[Exponent, int] = dict(terms) if terms else {}
        if set(map(len, map(itemgetter(2), clean))) - {rank}:
            es = next(es for _, _, es in clean if len(es) != rank)
            raise ValueError(f"expected {rank} framing exponents, got {es}")
        if 0 in clean.values():
            clean = {key: coeff for key, coeff in clean.items() if coeff}
        self.terms = clean

    def dimension(self) -> int:
        """Sum of all coefficients, i.e. the dimension of the representation."""
        return sum(self.terms.values())

    def negative_count(self, ordering: Ordering) -> int:
        """Number of terms, with multiplicity, of negative weight under `ordering`."""
        total = 0
        for (a, b, es), coeff in self.terms.items():
            if coeff < 0:
                raise ValueError(f"negative coefficient present: {coeff} at {(a, b, es)}")
            if form_sign(ordering(es), a, b) < 0:
                total += coeff
        return total

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())

    def to_json(self) -> list[dict]:
        return [
            {"coeff": c, "t1": a, "t2": b, "e": list(es)}
            for (a, b, es), c in self.sorted_terms()
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _format_term(self, key: Exponent, coeff: int) -> str:
        a, b, es = key
        factors = []
        for name, exp in (("t1", a), ("t2", b)) + tuple(
            (f"e{i + 1}", x) for i, x in enumerate(es)
        ):
            if exp == 1:
                factors.append(name)
            elif exp:
                factors.append(f"{name}^{exp}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        return body if coeff == 1 else f"{coeff}*{body}"

    def __repr__(self) -> str:
        if not self.terms:
            return "<Character 0>"
        body = " + ".join(self._format_term(k, c) for k, c in self.sorted_terms())
        return f"<Character {body}>"


def form_sign(forms: Forms, x: int, y: int) -> int:
    """Sign of the first nonzero u*x + v*y + w over `forms`, or 0 if there is none.

    The one sign rule of the package: `Character.negative_count` and the ALE
    pair tallies apply it to the forms an ordering gives a framing vector.
    """
    for u, v, w in forms:
        value = u * x + v * y + w
        if value:
            return 1 if value > 0 else -1
    return 0


def _ordering(rank: int, lead: tuple[int, int, int], tail: Forms) -> Ordering:
    """The ordering whose forms at a framing vector es are `lead`, then (0, 0, w)
    for the first nonzero entry w of es, or `tail` when es is 0.

    Cached per framing vector; a vector whose length is not `rank` is a ValueError.
    """

    @lru_cache(maxsize=None)
    def forms(es: tuple[int, ...]) -> Forms:
        if len(es) != rank:
            raise ValueError(f"ordering covers rank {rank}, monomial has rank {len(es)}")
        w = next(filter(None, es), 0)
        return (lead, (0, 0, w)) if w else (lead,) + tail

    return forms


def main_ordering(rank: int) -> Ordering:
    """The reduced chamber: t1 + t2 dominates, then the framing variables in order."""
    return _ordering(rank, (1, 1, 0), ())


def ale_ordering(rank: int) -> Ordering:
    """The ALE chamber: t2 dominates, then the framing variables in order, then t1."""
    return _ordering(rank, (0, 1, 0), ((1, 0, 0),))


class TPolynomial:
    """An integer polynomial in t with nonnegative exponents."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        for deg, coeff in (coeffs or {}).items():
            if deg < 0:
                raise ValueError(f"exponent must be nonnegative, got {deg}")
            if coeff:
                clean[deg] = coeff
        self.coeffs = clean

    def __call__(self, value: int) -> int:
        return sum(c * value**d for d, c in self.coeffs.items())

    def to_pairs(self) -> list[list[int]]:
        return [[d, self.coeffs[d]] for d in sorted(self.coeffs)]

    @classmethod
    def from_pairs(cls, pairs) -> "TPolynomial":
        coeffs: dict[int, int] = {}
        for pair in pairs:
            deg, coeff = _integers(pair)
            coeffs[deg] = coeffs.get(deg, 0) + coeff
        return cls(coeffs)

    def text(self) -> str:
        """Human-readable form, ascending: "1 + 2*t^2 + t^4"."""
        if not self.coeffs:
            return "0"
        parts = []
        for deg in sorted(self.coeffs):
            coeff = self.coeffs[deg]
            if deg == 0:
                body = str(abs(coeff))
            else:
                var = "t" if deg == 1 else f"t^{deg}"
                body = var if abs(coeff) == 1 else f"{abs(coeff)}*{var}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, TPolynomial) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"<TPolynomial {self.text()}>"


def _index(value, what: str, least: int = 0) -> int:
    # a series index is an int (not a bool, float or Fraction) and >= least
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


class QSeries:
    """A power series in q truncated at a fixed order, with integer q-exponents.

    Row j of `rows` is the coefficient of q^j as a {t-degree: coeff} table.
    The monomial factors (1 - q^a t^b) and 1/(1 - q^a t^b) multiply in
    place, one pass over the rows each, and discard terms beyond the order.
    Entries that cancel to 0 stay in their row until read.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, coeffs: Mapping[int, TPolynomial] | None = None):
        self.order = _index(order, "order")
        self.rows: list[dict[int, int]] = [{} for _ in range(order + 1)]
        for qexp, poly in (coeffs or {}).items():
            if _index(qexp, "q-exponent") <= order:
                self.rows[qexp] = dict(poly.coeffs)

    def add_monomial(self, qexp: int, degree: int) -> None:
        """Add q^qexp t^degree; a term beyond the order is discarded."""
        _index(degree, "t-degree")
        if _index(qexp, "q-exponent") <= self.order:
            row = self.rows[qexp]
            row[degree] = row.get(degree, 0) + 1

    def mul_one_minus(self, qexp: int, degree: int) -> None:
        """Multiply in place by (1 - q^qexp t^degree): row[j] -= row[j - qexp], descending."""
        # q^0 would make the pass read the row it writes
        _index(qexp, "a factor's q-exponent", 1)
        _index(degree, "t-degree")
        rows = self.rows
        for j in range(self.order, qexp - 1, -1):
            row = rows[j]
            for deg, coeff in rows[j - qexp].items():
                deg += degree
                row[deg] = row.get(deg, 0) - coeff

    def mul_inverse_one_minus(self, qexp: int, degree: int) -> None:
        """Multiply in place by 1/(1 - q^qexp t^degree): row[j] += row[j - qexp], ascending."""
        # q^0 would make the pass read the row it writes
        _index(qexp, "a factor's q-exponent", 1)
        _index(degree, "t-degree")
        rows = self.rows
        for j in range(qexp, self.order + 1):
            row = rows[j]
            for deg, coeff in rows[j - qexp].items():
                deg += degree
                row[deg] = row.get(deg, 0) + coeff

    def _terms(self) -> list[tuple[int, TPolynomial]]:
        # the nonzero coefficients, ascending in q
        return [(j, poly) for j, poly in enumerate(map(TPolynomial, self.rows)) if poly]

    def to_json(self) -> list[dict]:
        return [{"q": str(j), "poly": poly.to_pairs()} for j, poly in self._terms()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.order == other.order
            and self._terms() == other._terms()
        )

    def __repr__(self) -> str:
        terms = self._terms()
        if not terms:
            return "<QSeries 0>"
        body = " + ".join(f"({poly.text()})*q^{j}" for j, poly in terms)
        return f"<QSeries {body}>"
