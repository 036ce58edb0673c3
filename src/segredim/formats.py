"""Tensor formats and span statements, with the closed-form arithmetic around
them: ambient/target dimensions, abundance, balancedness, typical-rank and
defective-range formulas, and the text grammar for both."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union


class Abundance(Enum):
    SUBABUNDANT = "subabundant"
    SUPERABUNDANT = "superabundant"
    EQUIABUNDANT = "equiabundant"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Format:
    """Projective dimensions (n_1, ..., n_k) of the factors of a product of
    projective spaces. Entries are >= 0; a factor with n_i = 0 is a point.

    ambient_dim() keeps its value on the instance, as an attribute that is
    not a dataclass field, so it takes no part in ==, hash or repr."""

    dims: tuple[int, ...]

    # not a field (no annotation): None until ambient_dim() sets it
    _ambient = None

    def __post_init__(self) -> None:
        if len(self.dims) < 1:
            raise ValueError("a format needs at least one factor")
        # type(n) is int, as in json_int: a bool is no dimension
        if any(type(n) is not int or n < 0 for n in self.dims):
            raise ValueError(f"factor dimensions must be non-negative integers: {self.dims!r}")

    @classmethod
    def of(cls, dims: "FormatLike") -> "Format":
        if isinstance(dims, Format):
            return dims
        if isinstance(dims, str):
            return parse_format(dims)
        # operator.index raises TypeError on a float instead of truncating it
        return cls(tuple(operator.index(n) for n in dims))

    @property
    def k(self) -> int:
        return len(self.dims)

    def canonical(self) -> "Format":
        return Format(tuple(sorted(self.dims, reverse=True)))

    def ascending(self) -> tuple[int, ...]:
        return tuple(sorted(self.dims))

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.dims)


FormatLike = Union[Format, Sequence[int], str]


@dataclass(frozen=True)
class Statement:
    """Claim that s generic tangent spaces plus a_i generic fiber spans per
    factor together span a subspace of the expected dimension target_dim.

    canonical() and key() are worked out once per instance and kept as
    instance attributes that are not dataclass fields, so they take no
    part in ==, hash, repr or dataclasses.replace."""

    format: Format
    s: int
    a: tuple[int, ...]

    # not fields (no annotation): None until canonical() or key() sets them
    _canonical = None
    _key = None

    def __post_init__(self) -> None:
        if type(self.s) is not int or self.s < 0:  # no bool, as in Format
            raise ValueError(f"tangent point count must be a non-negative integer: {self.s!r}")
        if len(self.a) != self.format.k:
            raise ValueError(
                f"fiber count vector has length {len(self.a)}, format has {self.format.k} factors"
            )
        if any(type(x) is not int or x < 0 for x in self.a):
            raise ValueError(f"fiber counts must be non-negative integers: {self.a!r}")

    @classmethod
    def of(cls, fmt: FormatLike, s: int, a: Iterable[int] | None = None) -> "Statement":
        f = Format.of(fmt)
        av = tuple(operator.index(x) for x in a) if a is not None else (0,) * f.k
        return cls(f, operator.index(s), av)

    def canonical_order(self) -> tuple[int, ...]:
        # stable joint sort of (n_i, a_i) pairs, descending
        d, a = self.format.dims, self.a
        return tuple(sorted(range(len(d)), key=lambda i: (-d[i], -a[i], i)))

    def canonical(self) -> "Statement":
        """The statement with its slots in canonical order; `self` when
        they already are."""
        c = self._canonical
        if c is None:
            order = self.canonical_order()
            if order == tuple(range(self.format.k)):
                # True stands for self, so that no instance refers to itself
                c = True
            else:
                c = Statement(
                    Format(tuple(self.format.dims[i] for i in order)),
                    self.s,
                    tuple(self.a[i] for i in order),
                )
                object.__setattr__(c, "_canonical", True)
            object.__setattr__(self, "_canonical", c)
        return self if c is True else c

    def is_canonical(self) -> bool:
        return self.canonical() is self

    def key(self) -> str:
        k = self._key
        if k is None:
            c = self.canonical()
            k = str(c) if c is self else c.key()
            object.__setattr__(self, "_key", k)
        return k

    def __str__(self) -> str:
        return f"T({self.format};{self.s};{','.join(str(x) for x in self.a)})"


def ambient_dim(fmt: FormatLike) -> int:
    """Affine dimension of the ambient tensor space, prod(n_i + 1)."""
    f = fmt if isinstance(fmt, Format) else Format.of(fmt)
    p = f._ambient
    if p is None:
        p = math.prod(n + 1 for n in f.dims)
        object.__setattr__(f, "_ambient", p)
    return p


def parameter_count(st: Statement) -> int:
    """Affine dimension the configuration would span if all conditions were
    independent: s*(1 + sum n_i) + sum a_i*(n_i + 1)."""
    d, a = st.format.dims, st.a
    return st.s * (1 + sum(d)) + sum(map(operator.mul, a, d)) + sum(a)


def target_dim(st: Statement) -> int:
    """Affine dimension the statement asserts: min(parameter count, ambient)."""
    return min(parameter_count(st), ambient_dim(st.format))


def expected_secant_dim(fmt: FormatLike, s: int) -> tuple[int, int]:
    """(affine, projective) expected dimension of the s-th secant variety."""
    s = operator.index(s)
    if s < 1:
        raise ValueError(f"secant index must be >= 1: {s}")
    f = Format.of(fmt)
    affine = min(ambient_dim(f), s * (1 + sum(f.dims)))
    return affine, affine - 1


def expected_fill_count(fmt: FormatLike) -> int:
    """Least s whose expected secant dimension fills the ambient space."""
    f = Format.of(fmt)
    return -(-ambient_dim(f) // (1 + sum(f.dims)))


def abundance(st: Statement) -> Abundance:
    lhs, rhs = parameter_count(st), ambient_dim(st.format)
    if lhs < rhs:
        return Abundance.SUBABUNDANT
    if lhs > rhs:
        return Abundance.SUPERABUNDANT
    return Abundance.EQUIABUNDANT


def is_subabundant(st: Statement) -> bool:
    return parameter_count(st) <= ambient_dim(st.format)


def is_superabundant(st: Statement) -> bool:
    return parameter_count(st) >= ambient_dim(st.format)


def _balance_bound(fmt: Format) -> tuple[int, int]:
    # (largest factor, bound): bound = prod over the others (n_i+1) - sum of the others
    asc = fmt.ascending()
    rest = asc[:-1]
    return asc[-1], math.prod(n + 1 for n in rest) - sum(rest)


def is_balanced(fmt: FormatLike) -> bool:
    f = Format.of(fmt)
    if f.k < 2:
        raise ValueError("balancedness needs at least two factors")
    n_max, bound = _balance_bound(f)
    return n_max <= bound


def is_unbalanced(fmt: FormatLike) -> bool:
    f = Format.of(fmt)
    if f.k < 2:
        raise ValueError("balancedness needs at least two factors")
    n_max, bound = _balance_bound(f)
    return n_max - 1 >= bound


def unbalanced_defective_range(fmt: FormatLike) -> tuple[int, int]:
    """Open interval (lo, hi): secant indices strictly between are defective
    for an unbalanced format. Empty when lo + 1 >= hi."""
    f = Format.of(fmt)
    if not is_unbalanced(f):
        raise ValueError(f"format ({f}) is not unbalanced")
    asc = f.ascending()
    rest_prod = math.prod(n + 1 for n in asc[:-1])
    lo = rest_prod - sum(asc[:-1])
    hi = min(rest_prod, asc[-1] + 1)
    return lo, hi


def unbalanced_span_dim(fmt: FormatLike, d: int) -> int:
    """Affine dimension of the d-th secant cone of an unbalanced format for d
    in the defective range: d * (prod_rest + n_max + 1 - d)."""
    f = Format.of(fmt)
    lo, hi = unbalanced_defective_range(f)
    if not lo < d < hi:
        raise ValueError(f"secant index {d} outside defective range ({lo},{hi}) of ({f})")
    asc = f.ascending()
    rest_prod = math.prod(n + 1 for n in asc[:-1])
    return d * (rest_prod + asc[-1] + 1 - d)


def unbalanced_typical_rank(fmt: FormatLike) -> int:
    """min(n_max + 1, prod over the other factors of (n_i + 1))."""
    f = Format.of(fmt)
    if not is_unbalanced(f):
        raise ValueError(f"format ({f}) is not unbalanced")
    asc = f.ascending()
    return min(asc[-1] + 1, math.prod(n + 1 for n in asc[:-1]))


def is_numerically_perfect(fmt: FormatLike) -> bool:
    f = Format.of(fmt)
    return ambient_dim(f) % (1 + sum(f.dims)) == 0


# --- text grammar ---------------------------------------------------------
#
# statement := "T" "(" dims ";" INT [";" terms] ")"
# format    := terms | term ("x" term)*
# dims      := terms
# terms     := term ("," term)*
# term      := INT ["^" INT]          (power term expands to repeated entries)
# Whitespace is insignificant everywhere.


class ParseError(ValueError):
    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position} in {text!r}")
        self.position = position
        self.text = text


def json_int(value) -> int:
    """`value` if it is an int and not a bool, else TypeError; unlike int()
    it never truncates 0.9 to 0.  Certificate numbers go through it."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self._skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.text, self.pos)
        self.pos += 1

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a non-negative integer", self.text, start)
        return int(self.text[start : self.pos])

    def done(self) -> None:
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError("unexpected trailing input", self.text, self.pos)


def _term(sc: _Scanner) -> list[int]:
    value = sc.integer()
    if sc.accept("^"):
        at = sc.pos
        count = sc.integer()
        if count < 1:
            raise ParseError("power count must be >= 1", sc.text, at)
        return [value] * count
    return [value]


def _terms(sc: _Scanner, separators: str = ",") -> list[int]:
    out = _term(sc)
    while sc.peek() in separators and sc.peek():
        sc.pos += 1
        out.extend(_term(sc))
    return out


def _need_text(text) -> None:
    # a JSON list from a certificate or cache line would fail deep in _Scanner
    if not isinstance(text, str):
        raise TypeError(f"expected text to parse, got {text!r}")


def parse_format(text: str) -> Format:
    """Parse "4,4,7", "2^5" or "3x3x3" (also the unicode multiplication sign)."""
    _need_text(text)
    sc = _Scanner(text.replace("×", "x"))
    dims = _terms(sc, separators=",x")
    sc.done()
    return Format(tuple(dims))


def parse_statement(text: str) -> Statement:
    """Parse "T(dims; s)" or "T(dims; s; a-list)"; an omitted a-list means all
    zeros. Power terms like 2^5 are allowed in both lists."""
    _need_text(text)
    sc = _Scanner(text)
    sc.expect("T")
    sc.expect("(")
    dims = _terms(sc)
    sc.expect(";")
    s = sc.integer()
    a: list[int] | None = None
    if sc.accept(";"):
        at = sc.pos
        a = _terms(sc)
        if len(a) != len(dims):
            raise ParseError(
                f"fiber count list has {len(a)} entries for {len(dims)} factors", sc.text, at
            )
    sc.expect(")")
    sc.done()
    return Statement.of(dims, s, a)
