"""Bit-accurate runtime value helpers.

The machine keeps guest integers in 64-bit two's-complement range and
guest floats as IEEE-754 doubles, so that the fault injector's single-bit
flips (:mod:`repro.faults`) behave exactly like register-file upsets on
real hardware: flipping bit 63 of an int turns a small positive loop
bound into a huge negative one, flipping an exponent bit of a double
scales it wildly, and so on.
"""

from __future__ import annotations

import math
import operator
import struct
from itertools import compress, repeat
from typing import Any, Callable, Dict, Sequence, Union

from repro.errors import GuestCrash, SimulationError

INT_BITS = 64
_INT_MASK = (1 << INT_BITS) - 1
_INT_SIGN = 1 << (INT_BITS - 1)
INT_MIN = -_INT_SIGN
INT_MAX = _INT_SIGN - 1

GuestValue = Union[int, float, bool]


def wrap_int(value: int) -> int:
    """Wrap a Python int into 64-bit two's-complement range."""
    value &= _INT_MASK
    return value - (1 << INT_BITS) if value & _INT_SIGN else value


def int_div(lhs: int, rhs: int, thread_id: int = None) -> int:
    """C-style integer division (truncation toward zero)."""
    if rhs == 0:
        raise GuestCrash("integer division by zero", thread_id)
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return wrap_int(quotient)


def int_mod(lhs: int, rhs: int, thread_id: int = None) -> int:
    """C-style remainder: sign follows the dividend."""
    if rhs == 0:
        raise GuestCrash("integer modulo by zero", thread_id)
    return wrap_int(lhs - int_div(lhs, rhs, thread_id) * rhs)


def float_div(lhs, rhs) -> float:
    """Float division with IEEE zero-divisor rules (no trap)."""
    lhs, rhs = float(lhs), float(rhs)
    if rhs == 0.0:
        return (math.inf if lhs > 0
                else (-math.inf if lhs < 0 else math.nan))
    return lhs / rhs


#: Binary operators that are one host operation on guest values.
#: ``div``/``mod`` are not: they trap (:func:`int_div`, :func:`int_mod`)
#: or follow IEEE rules (:func:`float_div`).
BINOP_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda lhs, rhs: lhs << (rhs & 63),
    "shr": lambda lhs, rhs: lhs >> (rhs & 63),
    "min": min,
    "max": max,
}

CMP_FUNCS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def evaluate_cmp(op: str, lhs, rhs) -> bool:
    """One guest comparison (the injector re-evaluates corrupted
    compares with it; the optimizer folds constant ones)."""
    try:
        return CMP_FUNCS[op](lhs, rhs)
    except KeyError:
        raise SimulationError("unknown comparison %s" % op) from None


def float_to_int(value: float, thread_id: int = None) -> int:
    """``ftoi``: truncate toward zero; traps on NaN/inf/overflow like a
    hardware conversion raising an invalid-operation exception."""
    if math.isnan(value) or math.isinf(value):
        raise GuestCrash("float-to-int conversion of %r" % value, thread_id)
    truncated = int(value)
    if truncated < INT_MIN or truncated > INT_MAX:
        raise GuestCrash("float-to-int overflow of %r" % value, thread_id)
    return truncated


def flip_int_bit(value: int, bit: int) -> int:
    """Flip one bit of a 64-bit two's-complement integer."""
    if not 0 <= bit < INT_BITS:
        raise ValueError("bit %d out of range" % bit)
    return wrap_int((value & _INT_MASK) ^ (1 << bit))


def flip_float_bit(value: float, bit: int) -> float:
    """Flip one bit of the IEEE-754 double representation."""
    if not 0 <= bit < 64:
        raise ValueError("bit %d out of range" % bit)
    (raw,) = struct.unpack("<Q", struct.pack("<d", value))
    (result,) = struct.unpack("<d", struct.pack("<Q", raw ^ (1 << bit)))
    return result


def exactly_equal(a, b) -> bool:
    """Equality of run state that no later execution can tell apart.

    ``a == b``, and the same types all the way down (``True`` is not
    ``1``), floats of the same sign (``-0.0`` is not ``0.0``) and no NaN
    anywhere (a NaN equals nothing, itself included).  Tuples, lists and
    dicts compare element by element, dicts in insertion order; other
    objects by ``==`` (identity for the compiled program's objects).
    The ``==`` pass rejects almost every difference; the typed pass
    runs only on states that pass it.  Both run mostly in C.
    """
    return a == b and _exact_items([a], [b])


_SEQUENCES = frozenset((tuple, list))
_CONTAINERS = _SEQUENCES | {dict}
#: Items the typed pass slices or gathers at a time, per nesting level,
#: which bounds the memory it allocates.
_CHUNK = 1024


def _exact_items(mine: Sequence, theirs: Sequence) -> bool:
    """The typed pass of :func:`exactly_equal` over two aligned
    sequences whose pairs are all ``==`` (or identical), one nesting
    level at a time: only types, zero signs and NaN are left to check.
    A nested sequence of ``_CHUNK`` items or more is walked on its own;
    shorter ones are gathered, up to ``_CHUNK`` items, into one pass."""
    for start in range(0, len(mine), _CHUNK):
        chunk = mine[start:start + _CHUNK]
        other_chunk = theirs[start:start + _CHUNK]
        types = list(map(type, chunk))
        if types != list(map(type, other_chunk)):
            return False
        kinds = set(types)
        if float in kinds:
            is_float = list(map(operator.is_, types, repeat(float)))
            floats = list(compress(chunk, is_float))
            if (any(map(math.isnan, floats))
                    or list(map(math.copysign, repeat(1.0), floats))
                    != list(map(math.copysign, repeat(1.0),
                                compress(other_chunk, is_float)))):
                return False
        if kinds.isdisjoint(_CONTAINERS):
            continue
        inner: list = []
        other: list = []
        for x, y in compress(zip(chunk, other_chunk),
                             map(_CONTAINERS.__contains__, types)):
            if type(x) is dict:
                # dict == ignores order: pair keys and values by position.
                x = (list(x), list(x.values()))
                y = (list(y), list(y.values()))
                if x != y:
                    return False
            if len(x) >= _CHUNK:
                if not _exact_items(x, y):
                    return False
                continue
            inner += x
            other += y
            if len(inner) >= _CHUNK:
                if not _exact_items(inner, other):
                    return False
                inner, other = [], []
        if inner and not _exact_items(inner, other):
            return False
    return True


def flip_value_bit(value: GuestValue, bit: int) -> GuestValue:
    """Flip a bit of any guest value; booleans live in bit 0."""
    if isinstance(value, bool):
        return not value if bit == 0 else value
    if isinstance(value, int):
        return flip_int_bit(value, bit)
    return flip_float_bit(value, bit)
