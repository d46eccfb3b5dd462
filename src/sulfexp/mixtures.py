"""Concrete mixture proportions and the three expansion-pattern groups."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from .errors import MissingField, RangeViolation, ValidationError


class GroupLabel(enum.Enum):
    """Expansion-pattern class of a mixture.

    HN expands fast and nonlinearly with a very early failure point, ML at
    moderate speed along a linear curve, LL slowly and linearly with
    failure near the end of (or beyond) a multi-decade record.
    """

    HN = "HN"
    ML = "ML"
    LL = "LL"

    def __str__(self) -> str:
        return self.value


#: field -> (lower bound, upper bound, lower bound exclusive)
FIELD_RANGES = {
    "wc": (0.0, 1.0, True),
    "c3a": (0.0, 100.0, False),
    "c3s": (0.0, 100.0, False),
    "c2s": (0.0, 100.0, False),
    "c4af": (0.0, 100.0, False),
    "cement_content": (0.0, 1.0, False),
    "air": (0.0, 100.0, False),
}

MIXTURE_FIELDS = ("wc", "c3a", "c3s", "c2s", "c4af", "cement_content", "air")


@dataclass(frozen=True)
class Mixture:
    """One concrete mix proportion.

    ``wc`` is the water-cement mass ratio, the clinker phases (``c3a``,
    ``c3s``, ``c2s``, ``c4af``) and ``air`` are percentages 0-100, and
    ``cement_content`` is a fraction 0-1. Any field may be absent (None);
    operations that need a field raise :class:`MissingField` when it is.
    """

    id: str
    wc: float | None = None
    c3a: float | None = None
    c3s: float | None = None
    c2s: float | None = None
    c4af: float | None = None
    cement_content: float | None = None
    air: float | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.name == "id":
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            value = float(value)
            object.__setattr__(self, f.name, value)
            if not math.isfinite(value):
                raise RangeViolation(f"mixture {self.id!r}: {f.name} is not finite", field=f.name)
            lo, hi, lo_exclusive = FIELD_RANGES[f.name]
            if value > hi or value < lo or (lo_exclusive and value == lo):
                raise RangeViolation(
                    f"mixture {self.id!r}: {f.name}={value} outside "
                    f"{'(' if lo_exclusive else '['}{lo}, {hi}]",
                    field=f.name,
                )

    def require(self, *names: str) -> list[float]:
        """Fetch fields, raising MissingField for any that are absent.

        A name outside :data:`MIXTURE_FIELDS` raises :class:`ValidationError`.
        """
        values = []
        for name in names:
            if name not in MIXTURE_FIELDS:
                raise ValidationError(f"unknown mixture field {name!r}")
            value = getattr(self, name)
            if value is None:
                raise MissingField(f"mixture {self.id!r} is missing field {name!r}")
            values.append(value)
        return values
