"""A unified data-type lattice spanning relational and XML type systems.

The case study in the CIDR 2009 paper matches a relational schema against an
XML Schema, so type evidence must be comparable across both systems.  Every
concrete type (``VARCHAR(30)``, ``xs:dateTime``...) is normalised into one of
a small set of :class:`DataType` families, and a compatibility matrix scores
how strongly two families suggest (or contradict) a correspondence.

Compatibility is *soft* evidence: two STRING columns say little; a STRING and
a BOOLEAN mildly contradict; identical temporal families reinforce.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "DataType",
    "parse_sql_type",
    "parse_xsd_type",
    "compatibility",
    "family_table",
]


class DataType(Enum):
    """Normalised type families shared by all importers."""

    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"
    DATE = "date"
    TIME = "time"
    DATETIME = "datetime"
    BINARY = "binary"
    IDENTIFIER = "identifier"  # keys, UUIDs, codes used as surrogate ids
    COMPLEX = "complex"        # containers: tables, XSD complex types
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SQL_TYPE_FAMILIES: dict[str, DataType] = {
    "char": DataType.STRING,
    "varchar": DataType.STRING,
    "varchar2": DataType.STRING,
    "nvarchar": DataType.STRING,
    "nchar": DataType.STRING,
    "text": DataType.STRING,
    "clob": DataType.STRING,
    "string": DataType.STRING,
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "smallint": DataType.INTEGER,
    "bigint": DataType.INTEGER,
    "tinyint": DataType.INTEGER,
    "serial": DataType.IDENTIFIER,
    "decimal": DataType.DECIMAL,
    "numeric": DataType.DECIMAL,
    "number": DataType.DECIMAL,
    "float": DataType.DECIMAL,
    "real": DataType.DECIMAL,
    "double": DataType.DECIMAL,
    "money": DataType.DECIMAL,
    "bool": DataType.BOOLEAN,
    "boolean": DataType.BOOLEAN,
    "bit": DataType.BOOLEAN,
    "date": DataType.DATE,
    "time": DataType.TIME,
    "timestamp": DataType.DATETIME,
    "datetime": DataType.DATETIME,
    "blob": DataType.BINARY,
    "binary": DataType.BINARY,
    "varbinary": DataType.BINARY,
    "bytea": DataType.BINARY,
    "uuid": DataType.IDENTIFIER,
    "guid": DataType.IDENTIFIER,
}

_XSD_TYPE_FAMILIES: dict[str, DataType] = {
    "string": DataType.STRING,
    "normalizedstring": DataType.STRING,
    "token": DataType.STRING,
    "anyuri": DataType.STRING,
    "language": DataType.STRING,
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "long": DataType.INTEGER,
    "short": DataType.INTEGER,
    "byte": DataType.INTEGER,
    "nonnegativeinteger": DataType.INTEGER,
    "positiveinteger": DataType.INTEGER,
    "unsignedint": DataType.INTEGER,
    "unsignedlong": DataType.INTEGER,
    "decimal": DataType.DECIMAL,
    "float": DataType.DECIMAL,
    "double": DataType.DECIMAL,
    "boolean": DataType.BOOLEAN,
    "date": DataType.DATE,
    "time": DataType.TIME,
    "datetime": DataType.DATETIME,
    "gyear": DataType.DATE,
    "gyearmonth": DataType.DATE,
    "duration": DataType.TIME,
    "base64binary": DataType.BINARY,
    "hexbinary": DataType.BINARY,
    "id": DataType.IDENTIFIER,
    "idref": DataType.IDENTIFIER,
    "ncname": DataType.IDENTIFIER,
}


def parse_sql_type(declared: str) -> DataType:
    """Map a declared SQL type (``VARCHAR(30)``, ``NUMBER(10,2)``) to a family.

    >>> parse_sql_type("VARCHAR(30)")
    <DataType.STRING: 'string'>
    """
    base = declared.strip().lower().split("(")[0].strip()
    return _SQL_TYPE_FAMILIES.get(base, DataType.UNKNOWN)


def parse_xsd_type(declared: str) -> DataType:
    """Map an XSD type reference (``xs:dateTime``) to a family.

    Unqualified or foreign-namespace references fall back to UNKNOWN unless
    the local name matches a built-in.
    """
    local = declared.strip().lower().split(":")[-1]
    return _XSD_TYPE_FAMILIES.get(local, DataType.UNKNOWN)


# Pairwise compatibility in [0, 1]: 1 = strongly reinforcing, 0.5 = neutral,
# 0 = contradicting.  Symmetric by construction.
_COMPAT: dict[frozenset[DataType], float] = {}


def _set_compat(left: DataType, right: DataType, value: float) -> None:
    _COMPAT[frozenset((left, right))] = value


for _family in DataType:
    _set_compat(_family, _family, 1.0)
_set_compat(DataType.DATE, DataType.DATETIME, 0.9)
_set_compat(DataType.TIME, DataType.DATETIME, 0.8)
_set_compat(DataType.DATE, DataType.TIME, 0.4)
_set_compat(DataType.INTEGER, DataType.DECIMAL, 0.8)
_set_compat(DataType.INTEGER, DataType.IDENTIFIER, 0.6)
_set_compat(DataType.STRING, DataType.IDENTIFIER, 0.6)
_set_compat(DataType.STRING, DataType.DATE, 0.35)
_set_compat(DataType.STRING, DataType.DATETIME, 0.35)
_set_compat(DataType.STRING, DataType.TIME, 0.35)
_set_compat(DataType.STRING, DataType.INTEGER, 0.3)
_set_compat(DataType.STRING, DataType.DECIMAL, 0.3)
_set_compat(DataType.STRING, DataType.BOOLEAN, 0.25)
_set_compat(DataType.BOOLEAN, DataType.INTEGER, 0.4)
_set_compat(DataType.COMPLEX, DataType.COMPLEX, 1.0)


def compatibility(left: DataType, right: DataType) -> float:
    """Soft compatibility score in [0, 1] between two type families.

    UNKNOWN against anything is neutral (0.5): absence of type information
    must not push a confidence score either way.  COMPLEX against a scalar is
    contradicting (containers do not match leaves).
    """
    if left is DataType.UNKNOWN or right is DataType.UNKNOWN:
        return 0.5
    if (left is DataType.COMPLEX) != (right is DataType.COMPLEX):
        return 0.05
    return _COMPAT.get(frozenset((left, right)), 0.15)


@lru_cache(maxsize=1)
def family_table() -> tuple[np.ndarray, dict[DataType, int]]:
    """The dense family-by-family compatibility table plus the index mapping.

    Built once; the datatype voter's kernels gather from it directly.  Treat the
    returned array as read-only.
    """
    families = list(DataType)
    family_index = {family: position for position, family in enumerate(families)}
    table = np.empty((len(families), len(families)))
    for row, left in enumerate(families):
        for col, right in enumerate(families):
            table[row, col] = compatibility(left, right)
    return table, family_index
