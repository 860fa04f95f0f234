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

`OrderingSpec` fixes a lexicographic sign convention on Character
monomials, used to count negative-weight directions.  At a fixed framing
vector its keys are linear forms in the t-exponents (`OrderingSpec.forms`),
and `form_sign` reads a sign off them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

Exponent = tuple[int, int, tuple[int, ...]]
# (u, v, w): the linear form u*x + v*y + w in the exponents x of t1 and y of t2
Forms = tuple[tuple[int, int, int], ...]
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
        if {len(es) for _, _, es in clean} - {rank}:
            es = next(es for _, _, es in clean if len(es) != rank)
            raise ValueError(f"expected {rank} framing exponents, got {es}")
        if 0 in clean.values():
            clean = {key: coeff for key, coeff in clean.items() if coeff}
        self.terms = clean

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

    __slots__ = ("keys", "rank", "_positions", "_forms")

    def __init__(self, keys: Iterable[str | Iterable[str]]):
        self.keys = tuple((key,) if isinstance(key, str) else tuple(key) for key in keys)
        # each key as its positions in the flat exponent vector (t1, t2, e1, .., er)
        self._positions = tuple(tuple(map(self._position, group)) for group in self.keys)
        names = [name for group in self.keys for name in group]
        if len(names) != len(set(names)):
            raise ValueError(f"variable listed twice in ordering: {names}")
        if "t1" not in names or "t2" not in names:
            raise ValueError("ordering must mention both t1 and t2")
        e_indices = sorted(int(n[1:]) for n in names if n.startswith("e"))
        if e_indices != list(range(1, len(e_indices) + 1)):
            raise ValueError(f"framing variables must be e1..er, got {names}")
        self.rank = len(e_indices)
        self._forms: dict[tuple[int, ...], Forms] = {}

    @staticmethod
    def _position(name: str) -> int:
        """Index of a variable in (t1, t2, e1, .., er); ValueError for an unknown name."""
        if name in ("t1", "t2"):
            return int(name[1]) - 1
        if name.startswith("e") and name[1:].isdigit() and int(name[1:]) >= 1:
            return int(name[1:]) + 1
        raise ValueError(f"unknown variable name {name!r}")

    def forms(self, es: tuple[int, ...]) -> Forms:
        """The keys, at framing exponents `es`, as linear forms in the t-exponents.

        At the monomial t1^x t2^y e^es a key's value is u*x + v*y + w, where
        u and v count t1 and t2 in the key and w sums its framing exponents.
        Forms that are identically 0 are dropped, and the list ends at the
        first constant one: every monomial that reaches it takes its sign
        there.  Cached per framing vector.
        """
        forms = self._forms.get(es)
        if forms is None:
            if len(es) != self.rank:
                raise ValueError(f"ordering covers rank {self.rank}, monomial has rank {len(es)}")
            flat = (0, 0) + es
            kept = []
            for group in self._positions:
                u, v, w = group.count(0), group.count(1), sum(map(flat.__getitem__, group))
                if u or v or w:
                    kept.append((u, v, w))
                    if not (u or v):
                        break
            forms = self._forms[es] = tuple(kept)
        return forms

    def sign(self, key: Exponent) -> int:
        """Sign of the first nonzero key value at the monomial `key`, or 0."""
        a, b, es = key
        # a cached vector passed the rank check, and its forms are never empty
        return form_sign(self._forms.get(es) or self.forms(es), a, b)

    def __repr__(self) -> str:
        parts = []
        for group in self.keys:
            parts.append(group[0] if len(group) == 1 else "{" + "+".join(group) + "}")
        return f"OrderingSpec({' > '.join(parts)})"


def form_sign(forms: Forms, x: int, y: int) -> int:
    """Sign of the first nonzero u*x + v*y + w over `forms`, or 0 if there is none.

    The one sign rule of the package: `OrderingSpec.sign` applies it to the
    forms of a monomial's framing vector.
    """
    for u, v, w in forms:
        value = u * x + v * y + w
        if value:
            return 1 if value > 0 else -1
    return 0


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

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

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
