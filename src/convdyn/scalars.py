"""Scalar handling shared by every module.

A scalar is either an exact rational (``fractions.Fraction``, always in
canonical reduced form with positive denominator) or a double-precision
float.  A weight vector is single-mode: all exact or all float, never a
mixture.  Integers count as exact and are normalised to ``Fraction``.

This is the only module that knows how the two modes differ:

- :func:`normalize` coerces a vector and decides its mode once, so
  measures and test functions store their mode instead of rescanning,
  and stores every zero as its mode's one shared :data:`ZERO`, so that
  a sparse vector's zeros cost a pointer each;
- :func:`coerce` puts a scalar into a mode (the mode's zero is
  ``coerce(0, mode)``, an exact value in float mode is its ``float``);
- :func:`equal` compares two scalars: exactly when both are exact, and
  within :data:`FLOAT_TOL` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign
from typing import Iterable, Sequence, Union

from .errors import ModeMismatchError, ParseError

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

FLOAT_TOL = 1e-12

ZERO = {EXACT: Fraction(0), FLOAT: 0.0}  # the zero object of each mode


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def parse_scalar(value) -> Scalar:
    """Parse one JSON-level scalar: 'num/den' or integer string -> Fraction,
    int -> Fraction, float -> float."""
    if isinstance(value, bool):
        raise ParseError(f"boolean is not a scalar: {value!r}")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse rational {value!r}: {exc}") from None
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise ParseError(f"cannot parse scalar of type {type(value).__name__}")


def parse_weights(values: Sequence) -> tuple[Scalar, ...]:
    """Parse a JSON weight list, inferring the mode and rejecting mixtures.

    Strings force exact mode (integers are then read exactly as well);
    any float puts the whole vector in float mode.  A vector containing
    both a string and a float is rejected.
    """
    if not isinstance(values, (list, tuple)):
        raise ParseError("weights must be a JSON array")
    has_str = any(isinstance(v, str) for v in values)
    has_float = any(isinstance(v, float) for v in values)
    if has_str and has_float:
        raise ParseError("weights mix 'num/den' strings with floats")
    parsed = tuple(parse_scalar(v) for v in values)
    if not has_str and has_float:
        parsed = tuple(float(v) for v in parsed)
    return parsed


def mode_of(values: Iterable[Scalar]) -> str:
    """Return EXACT or FLOAT for a scalar vector; reject mixed vectors.

    Whether a value is exact or a float depends on its type alone, so
    each distinct type is tested once.
    """
    types = set(map(type, values))
    exact = [t is not bool and issubclass(t, (Fraction, int)) for t in types]
    if all(exact):
        return EXACT
    if not any(exact) and all(issubclass(t, float) for t in types):
        return FLOAT
    raise ModeMismatchError("vector mixes exact and float scalars")


def normalize(values: Iterable[Scalar]) -> tuple[tuple[Scalar, ...], str]:
    """The vector with ints coerced to Fraction and every zero replaced
    by ``ZERO[mode]``, and its mode (EXACT or FLOAT); a mixed vector
    raises ModeMismatchError.  A float -0.0 is kept, so its repr does not
    change."""
    values = tuple(values)
    mode = mode_of(values)
    if mode == EXACT:
        zero = ZERO[EXACT]
        values = tuple((v if type(v) is Fraction else Fraction(v)) if v else zero for v in values)
    else:
        zero = ZERO[FLOAT]
        values = tuple(v if v or copysign(1.0, v) < 0 else zero for v in values)
    return values, mode


def coerce(value: Scalar, mode: str) -> Scalar:
    """``value`` as a scalar of ``mode``."""
    return Fraction(value) if mode == EXACT else float(value)


def equal(a: Scalar, b: Scalar) -> bool:
    """a == b when both are exact; |a - b| <= FLOAT_TOL when either is a float."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_TOL


def scalar_to_json(value: Scalar):
    """Fractions serialize as 'num/den' strings, floats as JSON numbers."""
    if is_exact(value):
        return str(Fraction(value))
    return float(value)
