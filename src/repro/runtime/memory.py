"""Simulated shared memory: the single address space all threads see.

Scalars and arrays are initialized from the module's global declarations;
the host (test harness / kernel driver) may overwrite them before the
workers start, which is how kernels receive their inputs — the analogue
of ``main()`` filling global buffers before ``pthread_create``.

All accesses are bounds-checked: an out-of-range array index raises
:class:`~repro.errors.GuestCrash`, the simulator's SIGSEGV.  This is what
turns many injected control-data faults into crashes rather than silent
corruptions, exactly as on real hardware.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import GuestCrash, SimulationError
from repro.ir import ArrayType, Module
from repro.runtime.values import GuestValue, exactly_equal, wrap_int


class SharedMemory:
    """Name-addressed scalar and array storage."""

    def __init__(self, module: Module):
        self.scalars: Dict[str, GuestValue] = {}
        self.arrays: Dict[str, List[GuestValue]] = {}
        self._array_is_float: Dict[str, bool] = {}
        for name, g in module.globals.items():
            if isinstance(g.type, ArrayType):
                init = g.initializer
                if init is None:
                    init = [0.0 if g.type.element.name == "float" else 0] * g.type.length
                self.arrays[name] = list(init)
                self._array_is_float[name] = g.type.element.name == "float"
            elif g.type.is_scalar:
                self.scalars[name] = g.initializer if g.initializer is not None else 0
        self.loads = 0
        self.stores = 0

    # -- guest accessors ---------------------------------------------------

    def read_scalar(self, name: str, thread_id: Optional[int] = None) -> GuestValue:
        self.loads += 1
        try:
            return self.scalars[name]
        except KeyError:
            raise GuestCrash("load of unknown global @%s" % name, thread_id) from None

    def write_scalar(self, name: str, value: GuestValue,
                     thread_id: Optional[int] = None) -> None:
        self.stores += 1
        if name not in self.scalars:
            raise GuestCrash("store to unknown global @%s" % name, thread_id)
        self.scalars[name] = value

    def read_elem(self, name: str, index: int,
                  thread_id: Optional[int] = None) -> GuestValue:
        self.loads += 1
        array = self.arrays.get(name)
        if array is None:
            raise GuestCrash("load from unknown array @%s" % name, thread_id)
        if not 0 <= index < len(array):
            raise GuestCrash(
                "out-of-bounds read @%s[%d] (length %d)" % (name, index, len(array)),
                thread_id)
        return array[index]

    def write_elem(self, name: str, index: int, value: GuestValue,
                   thread_id: Optional[int] = None) -> None:
        self.stores += 1
        array = self.arrays.get(name)
        if array is None:
            raise GuestCrash("store to unknown array @%s" % name, thread_id)
        if not 0 <= index < len(array):
            raise GuestCrash(
                "out-of-bounds write @%s[%d] (length %d)" % (name, index, len(array)),
                thread_id)
        array[index] = value

    # -- checkpoints -------------------------------------------------------

    def save_state(self) -> tuple:
        """Copies of every scalar and array plus the access counters."""
        return (dict(self.scalars),
                {name: list(array) for name, array in self.arrays.items()},
                self.loads, self.stores)

    def load_state(self, state: tuple) -> None:
        """Overwrite this memory with (copies of) a saved state."""
        scalars, arrays, self.loads, self.stores = state
        self.scalars = dict(scalars)
        self.arrays = {name: list(array) for name, array in arrays.items()}

    def same_state(self, state: tuple) -> bool:
        """Whether this memory holds exactly the saved ``state``
        (:func:`~repro.runtime.values.exactly_equal`), compared in
        place."""
        scalars, arrays, loads, stores = state
        return (self.loads == loads and self.stores == stores
                and exactly_equal(self.scalars, scalars)
                and exactly_equal(self.arrays, arrays))

    # -- host accessors (kernel setup / result readout) -----------------------

    def set_scalar(self, name: str, value: Union[int, float]) -> None:
        if name not in self.scalars:
            raise SimulationError("host set of unknown scalar @%s" % name)
        self.scalars[name] = wrap_int(value) if isinstance(value, int) else value

    def set_array(self, name: str, values) -> None:
        if name not in self.arrays:
            raise SimulationError("host set of unknown array @%s" % name)
        array = self.arrays[name]
        values = list(values)
        if len(values) > len(array):
            raise SimulationError(
                "host writes %d values into @%s of length %d"
                % (len(values), name, len(array)))
        if self._array_is_float[name]:
            values = [float(v) for v in values]
        else:
            values = [wrap_int(int(v)) for v in values]
        array[:len(values)] = values

    def get_scalar(self, name: str) -> GuestValue:
        return self.scalars[name]

    def get_array(self, name: str) -> List[GuestValue]:
        return list(self.arrays[name])

    def snapshot(self, names) -> Dict[str, List[GuestValue]]:
        """Copies of the given arrays/scalars for output comparison."""
        result: Dict[str, List[GuestValue]] = {}
        for name in names:
            if name in self.arrays:
                result[name] = list(self.arrays[name])
            elif name in self.scalars:
                result[name] = [self.scalars[name]]
            else:
                raise SimulationError("snapshot of unknown global @%s" % name)
        return result
