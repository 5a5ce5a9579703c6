"""Scalar and aggregate types for the repro IR.

The type system is intentionally small — just enough to express the
SPLASH-2-style kernels the reproduction evaluates:

* ``int``   — 64-bit two's-complement integer (the machine wraps
  arithmetic to 64 bits so single-bit-flip faults behave like hardware).
* ``float`` — IEEE-754 double, mapped onto Python floats.
* ``bool``  — produced by comparison instructions, consumed by branches.
* ``void``  — the "type" of instructions that produce no value.
* arrays    — one-dimensional, global-only aggregates of int or float.
* ``lock`` / ``barrier`` — synchronization objects, global-only.

Types are interned singletons: identity comparison (``is``) is valid and is
used throughout the package.
"""

from __future__ import annotations

from typing import Optional


class Type:
    """An interned IR type.  Use the module-level singletons below."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __reduce__(self):
        # Interning must survive pickling (the artifact store pickles
        # whole programs): rebuild through the singleton table so
        # ``x.type is INT`` stays valid on unpickled modules.
        return (_interned_type, (self.name,))

    def __repr__(self) -> str:
        return self.name

    @property
    def is_scalar(self) -> bool:
        return self.name in ("int", "float", "bool")

    @property
    def is_numeric(self) -> bool:
        return self.name in ("int", "float")

    @property
    def is_sync(self) -> bool:
        return self.name in ("lock", "barrier")


class ArrayType(Type):
    """A fixed-length one-dimensional array of a scalar element type."""

    __slots__ = ("element", "length")

    def __init__(self, element: Type, length: int):
        if not element.is_numeric:
            raise ValueError("array element type must be int or float, got %r" % element)
        if length <= 0:
            raise ValueError("array length must be positive, got %d" % length)
        super().__init__("%s[%d]" % (element.name, length))
        self.element = element
        self.length = length

    def __reduce__(self):
        # Array types are not interned, but their elements are.
        return (ArrayType, (self.element, self.length))

    @property
    def is_scalar(self) -> bool:
        return False


INT = Type("int")
FLOAT = Type("float")
BOOL = Type("bool")
VOID = Type("void")
LOCK = Type("lock")
BARRIER = Type("barrier")

_SCALARS = {"int": INT, "float": FLOAT, "bool": BOOL}

_INTERNED = {interned.name: interned
             for interned in (INT, FLOAT, BOOL, VOID, LOCK, BARRIER)}


def _interned_type(name: str) -> Type:
    """Pickle constructor: resolve a type name back to its singleton."""
    try:
        return _INTERNED[name]
    except KeyError:  # future non-interned scalar; identity not promised
        return Type(name)


def scalar_type(name: str) -> Type:
    """Return the interned scalar type for ``name`` (int/float/bool)."""
    try:
        return _SCALARS[name]
    except KeyError:
        raise ValueError("unknown scalar type %r" % name) from None


def array_of(element: Type, length: int) -> ArrayType:
    """Construct an array type.  Array types are not interned."""
    return ArrayType(element, length)


def common_numeric(a: Type, b: Type) -> Optional[Type]:
    """Return the arithmetic result type of combining ``a`` and ``b``.

    int op int -> int; any float operand promotes the result to float.
    Returns ``None`` if either operand is not numeric.
    """
    if not (a.is_numeric and b.is_numeric):
        return None
    if a is FLOAT or b is FLOAT:
        return FLOAT
    return INT
