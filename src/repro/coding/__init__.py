"""Coded-computing codecs: Lagrange coded computing (LCC).

The paper treats MDS coding as "a special case of LCC when the
computations are only linear" (Sec. IV-A); the implementation does
the same: an MDS-coded round is a :class:`LagrangeCode` with ``T = 0``
and ``deg f = 1``.

:class:`SchemeParams` carries the resource accounting of the paper —
Eq. (1) for LCC, Eq. (2) for AVCC — and is used by masters and the
dynamic-coding policy alike.
"""

from repro.coding.base import partition_rows, stack_blocks, unpartition_rows
from repro.coding.lcc import LagrangeCode
from repro.coding.scheme import SchemeParams

__all__ = [
    "LagrangeCode",
    "SchemeParams",
    "partition_rows",
    "stack_blocks",
    "unpartition_rows",
]
