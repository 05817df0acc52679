"""Runtime value conformance for DiaSpec types.

The generated frameworks of the paper are statically typed (Java).  In the
Python host we enforce the same guarantees dynamically: every value that
crosses a component boundary (a source reading, a published context value,
an action argument) is checked against its declared type before delivery.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.errors import ValueConformanceError
from repro.typesys.core import (
    ArrayType,
    DiaType,
    EnumerationType,
    PrimitiveType,
    StructureType,
)


class StructureValue:
    """A runtime instance of a declared ``structure`` type.

    Behaves like a lightweight record: fields are attributes, equality is
    structural, and construction validates field values against the
    structure's declared field types.

    >>> availability = StructureValue(availability_type, parkingLot="A22", count=3)
    >>> availability.count
    3
    """

    __slots__ = ("_type", "_values")

    def __init__(self, structure_type: StructureType, **field_values: Any):
        declared = set(structure_type.field_names)
        supplied = set(field_values)
        if declared != supplied:
            missing = sorted(declared - supplied)
            extra = sorted(supplied - declared)
            parts = []
            if missing:
                parts.append(f"missing fields {missing}")
            if extra:
                parts.append(f"unknown fields {extra}")
            raise ValueConformanceError(
                f"structure {structure_type.name}: " + ", ".join(parts)
            )
        checked = {}
        for name, dia_type in structure_type.fields:
            checked[name] = check_value(dia_type, field_values[name])
        object.__setattr__(self, "_type", structure_type)
        object.__setattr__(self, "_values", checked)

    @property
    def structure_type(self) -> StructureType:
        return self._type

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("StructureValue instances are immutable")

    def as_dict(self) -> Mapping[str, Any]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructureValue)
            and self._type == other._type
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._type.name, tuple(sorted(self._values.items()))))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"{self._type.name}({fields})"


def check_value(dia_type: DiaType, value: Any) -> Any:
    """Validate ``value`` against ``dia_type`` and return it unchanged.

    Raises :class:`ValueConformanceError` on mismatch.  Lists and tuples are
    both accepted for array types; tuples are returned as-is (no copying).
    """
    if isinstance(dia_type, PrimitiveType):
        _check_primitive(dia_type, value)
        return value
    if isinstance(dia_type, EnumerationType):
        if value not in dia_type:
            raise ValueConformanceError(
                f"{value!r} is not a member of enumeration {dia_type.name}"
            )
        return value
    if isinstance(dia_type, StructureType):
        if isinstance(value, StructureValue) and value.structure_type == dia_type:
            return value
        if isinstance(value, Mapping):
            return StructureValue(dia_type, **value)
        as_dict = getattr(value, "as_dict", None)
        if callable(as_dict):
            # Generated structure classes expose their fields via as_dict().
            return StructureValue(dia_type, **as_dict())
        raise ValueConformanceError(
            f"{value!r} is not a value of structure {dia_type.name}"
        )
    if isinstance(dia_type, ArrayType):
        if not isinstance(value, (list, tuple)):
            raise ValueConformanceError(
                f"{value!r} is not an array of {dia_type.element.name}"
            )
        return [check_value(dia_type.element, item) for item in value]
    raise ValueConformanceError(f"unsupported type {dia_type!r}")


def coerce_value(dia_type: DiaType, value: Any) -> Any:
    """Like :func:`check_value`, but applies safe numeric widening.

    ``Integer`` readings are widened to float for a ``Float`` position;
    mappings are promoted to structure values.  Used at the device boundary
    where drivers may produce plain Python data.
    """
    if isinstance(dia_type, PrimitiveType) and dia_type.name == "Float":
        if isinstance(value, bool):
            raise ValueConformanceError("Boolean is not a Float")
        if isinstance(value, int):
            return float(value)
    return check_value(dia_type, value)


# Python types whose values conform to a primitive as they are — the
# set(map(type, column)) fast path of coerce_column.  Subclasses (and
# bool posing as an Integer) take the per-value path instead.
_EXACT_TYPES = {
    "Boolean": frozenset((bool,)),
    "Integer": frozenset((int,)),
    "Float": frozenset((float,)),
    "String": frozenset((str,)),
}
_WIDENED_FLOAT = frozenset((float, int))


def coerce_column(dia_type: DiaType, column: List[Any]) -> List[Any]:
    """:func:`coerce_value` over a whole column of device readings.

    One ``set(map(type, column))`` pass decides a primitive or
    enumeration column at once; a column of ``Integer`` readings for a
    ``Float`` position is widened in one comprehension.  Anything else
    — structures, arrays, subclasses, a non-conforming value — runs
    :func:`coerce_value` value by value, so the result and the
    :class:`ValueConformanceError` naming the first offending value are
    exactly the scalar ones.  Returns ``column`` itself when no value
    needs converting, else a new list.
    """
    if isinstance(dia_type, PrimitiveType):
        types = set(map(type, column))
        exact = _EXACT_TYPES.get(dia_type.name)
        if exact is not None and types <= exact:
            return column
        if dia_type.name == "Float" and types <= _WIDENED_FLOAT:
            return [
                float(value) if type(value) is int else value
                for value in column
            ]
    elif isinstance(dia_type, EnumerationType):
        if set(map(type, column)) <= _EXACT_TYPES["String"] and set(
            column
        ) <= set(dia_type.members):
            return column
    return [coerce_value(dia_type, value) for value in column]


def _check_primitive(dia_type: PrimitiveType, value: Any) -> None:
    name = dia_type.name
    if name == "Boolean":
        if not isinstance(value, bool):
            raise ValueConformanceError(f"{value!r} is not a Boolean")
        return
    if name == "Integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueConformanceError(f"{value!r} is not an Integer")
        return
    if name == "Float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueConformanceError(f"{value!r} is not a Float")
        return
    if name == "String":
        if not isinstance(value, str):
            raise ValueConformanceError(f"{value!r} is not a String")
        return
    raise ValueConformanceError(f"unknown primitive {name}")
