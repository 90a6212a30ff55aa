"""Signatures and geometric signatures of dihedral actions.

A geometric signature (gamma; <s>^a, <sr>^b, C_1, ..., C_v) records the
quotient genus, the counts of reflection-stabilizer classes of the two
conjugacy types, and the cyclic stabilizer orders m_j | n.  For odd n the two
reflection types are conjugate and only t = a + b matters; the canonical form
stores (t, 0).

Text format: `Dn(gamma; s^a, sr^b, m1, ..., mv)` for even n and
`Dn(gamma; 2^t, m1, ..., mv)` for odd n.  For even n the reflection part is
mandatory (possibly as a lone `-` placeholder) because a bare list of periods
would be ambiguous with a plain signature.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .divisors import IntegerFunction
from .errors import (
    DegenerateSignatureError,
    InvalidArgumentError,
    SignatureSyntaxError,
)


def _check_nonneg(value: int, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidArgumentError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class PlainSignature:
    """(gamma; m_1, ..., m_v) with m_j >= 2, stored sorted ascending."""

    gamma: int
    periods: tuple[int, ...]

    def __post_init__(self):
        _check_nonneg(self.gamma, "gamma")
        for m in self.periods:
            if not isinstance(m, int) or m < 2:
                raise InvalidArgumentError(f"period {m!r} must be an integer >= 2")
        object.__setattr__(self, "periods", tuple(sorted(self.periods)))

    def __str__(self) -> str:
        return f"({self.gamma}; {_format_period_list(self.periods) or '-'})"


@dataclass(frozen=True)
class GeometricSignature:
    """(gamma; <s>^a, <sr>^b, periods) for the dihedral group of order 2n."""

    n: int
    gamma: int
    a: int
    b: int
    periods: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise InvalidArgumentError(f"n must be an integer >= 2, got {self.n!r}")
        _check_nonneg(self.gamma, "gamma")
        _check_nonneg(self.a, "a")
        _check_nonneg(self.b, "b")
        for m in self.periods:
            if not isinstance(m, int) or m < 2 or self.n % m != 0:
                raise InvalidArgumentError(
                    f"period {m!r} must be a divisor of n = {self.n} with m >= 2"
                )
        object.__setattr__(self, "periods", tuple(sorted(self.periods)))
        if self.n % 2 == 1 and self.b:
            # <s> and <sr> are conjugate for odd n; canonical form is (t, 0)
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", 0)

    @property
    def t(self) -> int:
        return self.a + self.b

    @property
    def v(self) -> int:
        return len(self.periods)

    def plain(self) -> PlainSignature:
        return PlainSignature(self.gamma, (2,) * self.t + self.periods)

    def genus(self) -> int:
        """Genus of the covering surface by Riemann-Hurwitz; exact."""
        doubled = (
            2 * self.n * (2 * self.gamma - 2)
            + self.n * self.t
            + sum(2 * (self.n - self.n // m) for m in self.periods)
        )
        if doubled % 2 != 0:
            raise DegenerateSignatureError(
                f"{self} has non-integral Riemann-Hurwitz genus"
            )
        g = (doubled + 2) // 2
        if g < 0:
            raise DegenerateSignatureError(f"{self} has negative genus {g}")
        return g

    def signature_function(self, q: int) -> int:
        """Multiplicity of q among the cyclic periods."""
        return self.periods.count(q)

    def hat_signature_function(self, q: int) -> int:
        """Number of periods dividing q; equals the divisor transform of the
        signature function at q and depends only on gcd(n, q)."""
        if not isinstance(q, int) or q < 1:
            raise InvalidArgumentError(f"q must be a positive integer, got {q!r}")
        return sum(1 for m in self.periods if q % m == 0)

    def signature_integer_function(self) -> IntegerFunction:
        table = {m: self.periods.count(m) for m in set(self.periods)}
        return IntegerFunction(self.n, table)

    def count_A(self) -> int:
        """#{j : n/m_j odd}; requires n even."""
        if self.n % 2 != 0:
            raise InvalidArgumentError("count_A requires even n")
        return sum(1 for m in self.periods if (self.n // m) % 2 == 1)

    def count_B(self) -> int:
        """#{j : n/(2 m_j) an odd integer}; requires n divisible by 4."""
        if self.n % 4 != 0:
            raise InvalidArgumentError("count_B requires n divisible by 4")
        return sum(1 for m in self.periods if (self.n // m) % 4 == 2)

    def lcm_periods(self) -> int:
        return math.lcm(*self.periods) if self.periods else 1

    def sort_key(self):
        return (self.gamma, self.a, self.b, self.periods)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "a": self.a,
            "b": self.b,
            "periods": list(self.periods),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeometricSignature":
        try:
            return cls(
                int(data["n"]),
                int(data["gamma"]),
                int(data["a"]),
                int(data["b"]),
                tuple(int(m) for m in data["periods"]),
            )
        except KeyError as exc:
            raise InvalidArgumentError(f"missing signature field {exc}") from exc

    def __str__(self) -> str:
        return format_geometric_signature(self)


# ---------------------------------------------------------------------------
# text format


def _format_period_list(periods: tuple[int, ...]) -> str:
    items = []
    i = 0
    while i < len(periods):
        j = i
        while j < len(periods) and periods[j] == periods[i]:
            j += 1
        count = j - i
        items.append(f"{periods[i]}^{count}" if count > 1 else str(periods[i]))
        i = j
    return ", ".join(items)


def format_geometric_signature(gs: GeometricSignature) -> str:
    items = []
    if gs.n % 2 == 0:
        for label, count in (("s", gs.a), ("sr", gs.b)):
            if count == 1:
                items.append(label)
            elif count > 1:
                items.append(f"{label}^{count}")
        if not items:
            items.append("-")
    else:
        if gs.t == 1:
            items.append("2")
        elif gs.t > 1:
            items.append(f"2^{gs.t}")
    period_part = _format_period_list(gs.periods)
    if period_part:
        items.append(period_part)
    body = ", ".join(items) if items else "-"
    return f"D{gs.n}({gs.gamma}; {body})"


_SIGNATURE_RE = re.compile(r"^\s*D\s*(\d+)\s*\(\s*(\d+)\s*;\s*(.*?)\s*\)\s*$")
_ITEM_RE = re.compile(
    r"""^(?:
        (?P<dash>-|—)
      | (?P<refl>sr?|s\s*\*\s*r)(?:\^(?P<rcount>\d+))?
      | (?P<m>\d+)(?:\^(?P<l>\d+))?
    )$""",
    re.VERBOSE,
)


def _split_items(body: str) -> list[str]:
    body = body.replace("{", "").replace("}", "")
    return [part.strip() for part in body.split(",") if part.strip()]


def parse_geometric_signature(text: str) -> GeometricSignature:
    """Parse the `Dn(gamma; ...)` text form.

    For even n the reflection part must be present: either `s`/`sr` items or
    a `-` placeholder meaning a = b = 0.  A bare period list is rejected as
    ambiguous with a plain (non-geometric) signature.
    """
    m = _SIGNATURE_RE.match(text)
    if not m:
        raise SignatureSyntaxError(
            f"cannot parse signature {text!r}; expected Dn(gamma; ...)"
        )
    n, gamma = int(m.group(1)), int(m.group(2))
    a = b = 0
    periods: list[int] = []
    saw_reflection_part = False
    for item in _split_items(m.group(3)):
        im = _ITEM_RE.match(item)
        if not im:
            raise SignatureSyntaxError(f"cannot parse signature item {item!r}")
        if im.group("dash"):
            saw_reflection_part = True
            continue
        if im.group("refl"):
            saw_reflection_part = True
            count = int(im.group("rcount") or 1)
            if im.group("refl") == "s":
                a += count
            else:
                b += count
            continue
        value = int(im.group("m"))
        count = int(im.group("l") or 1)
        if value == 2 and n % 2 == 1:
            # odd n has no order-2 rotations: a 2-entry is a reflection class
            a += count
            saw_reflection_part = True
        else:
            periods.extend([value] * count)
    if n % 2 == 0 and not saw_reflection_part and (periods or not m.group(3)):
        raise SignatureSyntaxError(
            f"{text!r} is ambiguous for even n: list reflection classes as "
            "s^a, sr^b (use '-' for none), e.g. D4(0; s, sr, 2, 4)"
        )
    try:
        return GeometricSignature(n, gamma, a, b, tuple(periods))
    except InvalidArgumentError as exc:
        raise SignatureSyntaxError(str(exc)) from exc


_PLAIN_RE = re.compile(r"^\s*\(\s*(\d+)\s*;\s*(.*?)\s*\)\s*$")


def parse_plain_signature(text: str) -> PlainSignature:
    """Parse `(gamma; m1, m2, ...)`, allowing m^l grouping and `-`."""
    m = _PLAIN_RE.match(text)
    if not m:
        raise SignatureSyntaxError(
            f"cannot parse plain signature {text!r}; expected (gamma; m1, ...)"
        )
    gamma = int(m.group(1))
    periods: list[int] = []
    for item in _split_items(m.group(2)):
        im = _ITEM_RE.match(item)
        if not im or im.group("refl"):
            raise SignatureSyntaxError(f"cannot parse period {item!r}")
        if im.group("dash"):
            continue
        periods.extend([int(im.group("m"))] * int(im.group("l") or 1))
    try:
        return PlainSignature(gamma, tuple(periods))
    except InvalidArgumentError as exc:
        raise SignatureSyntaxError(str(exc)) from exc
