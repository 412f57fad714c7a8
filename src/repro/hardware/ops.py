"""The two execution modes of the steady-state solver kernel.

Every solver formula — feature extraction (:mod:`repro.hardware.features`),
the quirk gates (:mod:`repro.hardware.rules`), the cache and PFC closed
forms, the per-direction solve and the ideal counters
(:mod:`repro.hardware.model`) — is written once, against an ``ops``
namespace and a *point* ``w``:

* :data:`SCALAR` evaluates one point: ``w`` is the
  :class:`~repro.hardware.workload.WorkloadDescriptor` itself and the
  ops are Python builtins (``min``, ``max``, ``a if c else b``);
* :class:`ColumnOps` evaluates ``n`` points at once: ``w`` is a
  :class:`Column` view whose attribute reads gather one float64 column
  across the workloads, and the ops are numpy ufuncs.

Both modes apply the same IEEE operations in the same order, so a point
solved in a batch is bit-identical to the same point solved alone.  The
hazards a formula must respect to keep that true:

* ``ops.where`` evaluates *both* branches in either mode, so a guarded
  division picks a safe denominator first (``ops.where(x > 0, x, 1.0)``);
* ``u ** 2`` is not always the same float as ``u * u``: per-point Python
  arithmetic goes through :meth:`apply`, never a ufunc;
* ints gather as exact float64 (every count here is far below 2**53).

:func:`ops_for` is the only place that chooses a mode: one point runs
scalar — numpy's per-call overhead dominates a single point — and
anything larger runs columns.
"""

from __future__ import annotations

import dataclasses
import functools
import operator

import numpy as np


class _ScalarOps:
    """One point: Python numbers and builtins."""

    minimum = min
    maximum = max
    and_ = operator.and_
    or_ = operator.or_
    any = bool
    to_float = float

    @staticmethod
    def where(cond, if_true, if_false):
        return if_true if cond else if_false

    @staticmethod
    def rint(value):
        # Python ``round`` is round-half-even, like ``np.rint``.
        return int(round(value))

    @staticmethod
    def isin(value, accepted) -> bool:
        return value in accepted

    @staticmethod
    def apply(fn, *args):
        """``fn(*args)``: per-point Python arithmetic."""
        return fn(*args)

    @staticmethod
    def records(value) -> list:
        """The one point's value, as a one-element list."""
        return [value]


#: The one-point namespace (stateless; shared).
SCALAR = _ScalarOps()


class Column:
    """Attribute-wise view of ``n`` objects.

    Reading an attribute gathers it across the objects: bools become a
    bool array, numbers a float64 array, anything else (strings, enums,
    nested objects, bound methods) another :class:`Column`.  Calling a
    column of methods calls each; ``==`` compares element-wise.  Each
    attribute is gathered once and memoized on the view.
    """

    def __init__(self, items: list) -> None:
        self.items = items

    def __getattr__(self, name: str):
        value = _gather(list(map(operator.attrgetter(name), self.items)))
        self.__dict__[name] = value
        return value

    def __call__(self, *args):
        return _gather([method(*args) for method in self.items])

    def __eq__(self, other):
        return np.array([item == other for item in self.items], dtype=bool)

    __hash__ = None  # type: ignore[assignment]

    def __iter__(self):
        return iter(self.items)


def _gather(values: list):
    first = values[0]
    if isinstance(first, (bool, np.bool_)):
        return np.array(values, dtype=bool)
    if isinstance(first, (int, float, np.number)):
        return np.array(values, dtype=np.float64)
    return Column(values)


def _values(arg) -> list:
    return arg.tolist() if isinstance(arg, np.ndarray) else list(arg)


class ColumnOps:
    """``n`` points at once: float64 columns and numpy ufuncs."""

    where = staticmethod(np.where)
    and_ = staticmethod(np.logical_and)
    or_ = staticmethod(np.logical_or)

    def __init__(self, n: int) -> None:
        self.n = n

    @staticmethod
    def minimum(*args):
        return functools.reduce(np.minimum, args)

    @staticmethod
    def maximum(*args):
        return functools.reduce(np.maximum, args)

    @staticmethod
    def any(mask) -> bool:
        return np.count_nonzero(mask) > 0

    @staticmethod
    def to_float(value):
        return np.asarray(value, dtype=np.float64)

    @staticmethod
    def rint(value):
        return np.rint(value).astype(np.int64)

    @staticmethod
    def isin(value, accepted):
        return np.array([item in accepted for item in value], dtype=bool)

    def apply(self, fn, *args):
        """``fn`` per point, on Python values, memoized by argument tuple.

        ``fn`` must be a pure function of hashable arguments; batches of
        related points (MFS ladders, one host's few memory devices)
        repeat arguments, so each distinct tuple is computed once.
        """
        memo: dict = {}
        out = []
        for key in zip(*(_values(arg) for arg in args)):
            value = memo.get(key)
            if value is None:
                value = memo[key] = fn(*key)
            out.append(value)
        return _gather(out)

    def records(self, value) -> list:
        """Split a column-valued result into ``n`` per-point Python values.

        Arrays convert through ``tolist`` (Python floats), dicts and
        dataclasses split field-wise in declaration order, and a value
        that is the same for every point is repeated.
        """
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, Column):
            return list(value.items)
        if isinstance(value, dict):
            columns = [self.records(column) for column in value.values()]
            return [dict(zip(value, row)) for row in zip(*columns)]
        if dataclasses.is_dataclass(value):
            fields = [
                self.records(getattr(value, field.name))
                for field in dataclasses.fields(value)
            ]
            return [type(value)(*row) for row in zip(*fields)]
        return [value] * self.n


def ops_for(workloads: list):
    """``(ops, w)`` for solving a non-empty ``workloads`` list.

    The one mode switch: one point is the workload itself under
    :data:`SCALAR`, more points a :class:`Column` view under
    :class:`ColumnOps`.
    """
    if len(workloads) <= 1:
        return SCALAR, workloads[0]
    return ColumnOps(len(workloads)), Column(list(workloads))
