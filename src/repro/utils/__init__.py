"""Shared utilities: argument validation and table formatting.

Table formatting loads on first use (:mod:`repro.utils.lazy`): only the
CLI and the experiment drivers print tables.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import DeferredExports
from repro.utils.validation import check_positive, check_power_of_two, check_in_range

if TYPE_CHECKING:
    from repro.utils.tables import format_table, format_series

__getattr__ = DeferredExports(__name__, {
    "repro.utils.tables": ("format_table", "format_series"),
})

__all__ = [
    "check_positive",
    "check_power_of_two",
    "check_in_range",
    "format_table",
    "format_series",
]
