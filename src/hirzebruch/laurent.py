"""Exact multivariate Laurent polynomials and truncated power series.

Three rings cover everything the fixed-point computations need:

* `Character`: integer Laurent polynomials in the two torus variables
  t1, t2 and framing variables e1..er.  A term is keyed by its exponent
  vector (a, b, (c1, .., cr)).
* `TPolynomial`: integer polynomials in a single variable t with
  nonnegative exponents, used for Poincare polynomials.
* `QSeries`: power series in q truncated at a fixed order, with
  TPolynomial coefficients and exact rational q-exponents.

`OrderingSpec` fixes a lexicographic sign convention on Character
monomials, used to count negative-weight directions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponent = tuple[int, int, tuple[int, ...]]
Matrix2 = tuple[tuple[int, int], tuple[int, int]]


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
    return Fraction(value)


class Character:
    """An exact Laurent polynomial in t1, t2, e1..er with integer coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, int] | None = None):
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        self.rank = rank
        clean: dict[Exponent, int] = {}
        for key, coeff in (terms or {}).items():
            _, _, es = key
            if len(es) != rank:
                raise ValueError(f"expected {rank} framing exponents, got {es}")
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, rank: int) -> "Character":
        return cls(rank)

    @classmethod
    def monomial(
        cls,
        rank: int,
        a: int = 0,
        b: int = 0,
        e: tuple[int, ...] | None = None,
        coeff: int = 1,
    ) -> "Character":
        es = tuple(e) if e is not None else (0,) * rank
        return cls(rank, {(a, b, es): coeff})

    def _require_same_rank(self, other: "Character") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        self._require_same_rank(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return Character(self.rank, terms)

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __neg__(self) -> "Character":
        return Character(self.rank, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other: Union["Character", int]) -> "Character":
        if isinstance(other, int):
            return Character(self.rank, {k: other * v for k, v in self.terms.items()})
        if not isinstance(other, Character):
            return NotImplemented
        self._require_same_rank(other)
        terms: dict[Exponent, int] = {}
        for (a1, b1, e1), c1 in self.terms.items():
            for (a2, b2, e2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2, tuple(x + y for x, y in zip(e1, e2)))
                terms[key] = terms.get(key, 0) + c1 * c2
        return Character(self.rank, terms)

    __rmul__ = __mul__

    def dimension(self) -> int:
        """Sum of all coefficients, i.e. the dimension of the representation."""
        return sum(self.terms.values())

    def substitute(self, matrix: Matrix2) -> "Character":
        """Apply the monomial map with integer matrix `matrix` to (t1, t2).

        A term t1^a t2^b is sent to t1^(m11*a + m12*b) t2^(m21*a + m22*b);
        framing exponents are untouched.  Colliding images are accumulated,
        so this is a ring homomorphism for any integer matrix.
        """
        (m11, m12), (m21, m22) = matrix
        terms: dict[Exponent, int] = {}
        for (a, b, es), coeff in self.terms.items():
            key = (m11 * a + m12 * b, m21 * a + m22 * b, es)
            terms[key] = terms.get(key, 0) + coeff
        return Character(self.rank, terms)

    def negative_count(self, ordering: "OrderingSpec") -> int:
        """Number of terms, with multiplicity, of negative lexicographic weight."""
        total = 0
        for key, coeff in self.terms.items():
            if coeff < 0:
                raise ValueError(f"negative coefficient present: {coeff} at {key}")
            if ordering.sign(key) < 0:
                total += coeff
        return total

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())

    def to_json(self) -> list[dict]:
        return [
            {"coeff": c, "t1": a, "t2": b, "e": list(es)}
            for (a, b, es), c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data, rank: int | None = None) -> "Character":
        terms: dict[Exponent, int] = {}
        for item in data:
            es = _integers(item["e"])
            if rank is None:
                rank = len(es)
            a, b, coeff = _integers((item["t1"], item["t2"], item["coeff"]))
            key = (a, b, es)
            terms[key] = terms.get(key, 0) + coeff
        if rank is None:
            raise ValueError("cannot infer rank of an empty character; pass rank=")
        return cls(rank, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self.terms.items())))

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


class OrderingSpec:
    """A lexicographic weight ordering on Character monomials.

    The ordering is a priority list of keys; a key is a single variable name
    ("t1", "t2", "e3") or a group of names whose exponents are summed.
    The sign of a monomial is the sign of its first nonzero key value.
    Every torus and framing variable must appear in exactly one key.
    """

    __slots__ = ("keys", "rank")

    def __init__(self, keys: Iterable[Union[str, Iterable[str]]]):
        normalized: list[tuple[str, ...]] = []
        for key in keys:
            group = (key,) if isinstance(key, str) else tuple(key)
            for name in group:
                if not self._valid_name(name):
                    raise ValueError(f"unknown variable name {name!r}")
            normalized.append(group)
        names = [name for group in normalized for name in group]
        if len(names) != len(set(names)):
            raise ValueError(f"variable listed twice in ordering: {names}")
        if "t1" not in names or "t2" not in names:
            raise ValueError("ordering must mention both t1 and t2")
        e_indices = sorted(int(n[1:]) for n in names if n.startswith("e"))
        if e_indices != list(range(1, len(e_indices) + 1)):
            raise ValueError(f"framing variables must be e1..er, got {names}")
        self.keys = tuple(normalized)
        self.rank = len(e_indices)

    @staticmethod
    def _valid_name(name: str) -> bool:
        if name in ("t1", "t2"):
            return True
        return name.startswith("e") and name[1:].isdigit() and int(name[1:]) >= 1

    def _exponent(self, name: str, key: Exponent) -> int:
        a, b, es = key
        if name == "t1":
            return a
        if name == "t2":
            return b
        return es[int(name[1:]) - 1]

    def sign(self, key: Exponent) -> int:
        if len(key[2]) != self.rank:
            raise ValueError(f"ordering covers rank {self.rank}, monomial has rank {len(key[2])}")
        for group in self.keys:
            value = sum(self._exponent(name, key) for name in group)
            if value:
                return 1 if value > 0 else -1
        return 0

    def __repr__(self) -> str:
        parts = []
        for group in self.keys:
            parts.append(group[0] if len(group) == 1 else "{" + "+".join(group) + "}")
        return f"OrderingSpec({' > '.join(parts)})"


def main_ordering(rank: int) -> OrderingSpec:
    """Torus variables dominate jointly, then framing variables in order."""
    return OrderingSpec([("t1", "t2")] + [f"e{i}" for i in range(1, rank + 1)])


def ale_ordering(rank: int) -> OrderingSpec:
    """t2 dominates, then the framing variables, then t1."""
    return OrderingSpec(["t2"] + [f"e{i}" for i in range(1, rank + 1)] + ["t1"])


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

    @classmethod
    def zero(cls) -> "TPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "TPolynomial":
        return cls({0: 1})

    @classmethod
    def t_power(cls, degree: int) -> "TPolynomial":
        return cls({degree: 1})

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        if not isinstance(other, TPolynomial):
            return NotImplemented
        coeffs = dict(self.coeffs)
        for deg, coeff in other.coeffs.items():
            coeffs[deg] = coeffs.get(deg, 0) + coeff
        return TPolynomial(coeffs)

    def __sub__(self, other: "TPolynomial") -> "TPolynomial":
        return self + (-other)

    def __neg__(self) -> "TPolynomial":
        return TPolynomial({d: -c for d, c in self.coeffs.items()})

    def __mul__(self, other: Union["TPolynomial", int]) -> "TPolynomial":
        if isinstance(other, int):
            return TPolynomial({d: other * c for d, c in self.coeffs.items()})
        if not isinstance(other, TPolynomial):
            return NotImplemented
        coeffs: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                coeffs[d1 + d2] = coeffs.get(d1 + d2, 0) + c1 * c2
        return TPolynomial(coeffs)

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        return sum(c * value**d for d, c in self.coeffs.items())

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, degree: int) -> int:
        return self.coeffs.get(degree, 0)

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

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"<TPolynomial {self.text()}>"


Rational = Union[int, Fraction]


class QSeries:
    """A power series in q truncated at a fixed order.

    Coefficients are TPolynomials; q-exponents are exact nonnegative
    rationals.  All arithmetic discards terms beyond the order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: Rational, coeffs: Mapping[Rational, TPolynomial] | None = None):
        self.order = Fraction(order)
        clean: dict[Fraction, TPolynomial] = {}
        for qexp, poly in (coeffs or {}).items():
            qexp = Fraction(qexp)
            if qexp < 0:
                raise ValueError(f"q-exponent must be nonnegative, got {qexp}")
            if qexp <= self.order and not poly.is_zero():
                clean[qexp] = poly
        self.coeffs = clean

    @classmethod
    def zero(cls, order: Rational) -> "QSeries":
        return cls(order)

    @classmethod
    def one(cls, order: Rational) -> "QSeries":
        return cls(order, {Fraction(0): TPolynomial.one()})

    @classmethod
    def term(cls, order: Rational, qexp: Rational, poly: TPolynomial) -> "QSeries":
        return cls(order, {Fraction(qexp): poly})

    def _require_same_order(self, other: "QSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        self._require_same_order(other)
        coeffs = dict(self.coeffs)
        for qexp, poly in other.coeffs.items():
            coeffs[qexp] = coeffs.get(qexp, TPolynomial.zero()) + poly
        return QSeries(self.order, coeffs)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        self._require_same_order(other)
        coeffs: dict[Fraction, TPolynomial] = {}
        for q1, p1 in self.coeffs.items():
            for q2, p2 in other.coeffs.items():
                qexp = q1 + q2
                if qexp <= self.order:
                    coeffs[qexp] = coeffs.get(qexp, TPolynomial.zero()) + p1 * p2
        return QSeries(self.order, coeffs)

    def scale(self, poly: TPolynomial) -> "QSeries":
        return QSeries(self.order, {q: p * poly for q, p in self.coeffs.items()})

    def coefficient(self, qexp: Rational) -> TPolynomial:
        return self.coeffs.get(Fraction(qexp), TPolynomial.zero())

    def items(self) -> list[tuple[Fraction, TPolynomial]]:
        return sorted(self.coeffs.items())

    def _shifted_scaled(self, qexp: Fraction, poly: TPolynomial) -> "QSeries":
        coeffs = {}
        for q, p in self.coeffs.items():
            if q + qexp <= self.order:
                coeffs[q + qexp] = p * poly
        return QSeries(self.order, coeffs)

    def mul_one_minus(self, qexp: Rational, poly: TPolynomial) -> "QSeries":
        """Multiply by (1 - q^qexp * poly)."""
        qexp = Fraction(qexp)
        shifted = self._shifted_scaled(qexp, poly)
        return self + QSeries(self.order, {q: -p for q, p in shifted.coeffs.items()})

    def mul_inverse_one_minus(self, qexp: Rational, poly: TPolynomial) -> "QSeries":
        """Multiply by 1/(1 - q^qexp * poly) = sum_m q^(m*qexp) poly^m."""
        qexp = Fraction(qexp)
        if qexp <= 0:
            raise ValueError(f"geometric inversion needs a positive q-exponent, got {qexp}")
        total = self
        term = self
        while True:
            term = term._shifted_scaled(qexp, poly)
            if not term.coeffs:
                return total
            total = total + term

    def to_json(self) -> list[dict]:
        return [{"q": str(q), "poly": p.to_pairs()} for q, p in self.items()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "<QSeries 0>"
        body = " + ".join(f"({p.text()})*q^{q}" for q, p in self.items())
        return f"<QSeries {body}>"
