"""The one CSV row format shared by every table the package writes.

A table is written block by block (one path, or one time row of the drift
field).  A row is ``lead, constant columns, value columns``: the lead cell
names the block, and the constant columns are the row-major product of
fixed axes (times, maturities, components), formatted once per call into a
row template.  Each block's rows then come from one ``%`` operation and go
out in one ``write``.  Integers print with ``str``, floats with 17
significant digits.
"""

from __future__ import annotations

from itertools import compress, product

import numpy as np

_LEAD = "\x00"  # stands for the block's lead cell in the row template


def _cell(value) -> str:
    return str(value) if isinstance(value, (int, np.integer)) else f"{value:.17g}"


def write_rows(fileobj, header, leads, axes, columns, write_header=True, keep=None):
    """Write one block of rows per entry of ``leads``.

    ``leads`` holds each block's first cell (a path id, or a time).
    ``axes`` are sequences whose row-major product gives each row's
    constant columns.  ``columns`` holds one (n_blocks, n_rows) array per
    value column, or None for a column left empty.  ``keep`` is a boolean
    (n_rows,) mask of the rows to write, the same for every block.  A
    non-finite value in a written row raises ``ValueError`` naming its
    column.
    """
    if write_header:
        fileobj.write(",".join(header) + "\n")
    prefixes = product(*([_cell(v) for v in axis] for axis in axes))
    if keep is not None:
        prefixes = compress(prefixes, keep)
    tail = "".join("," if c is None else ",%.17g" for c in columns) + "\n"
    template = "".join(_LEAD + "," + ",".join(pre) + tail for pre in prefixes)
    names = [n for n, c in zip(header[-len(columns):], columns) if c is not None]
    values = [c for c in columns if c is not None]
    for b, lead in enumerate(leads):
        block = np.column_stack([c[b] for c in values])
        if keep is not None:
            block = block[keep]
        finite = np.isfinite(block).all(axis=0)
        if not finite.all():
            raise ValueError(f"non-finite value in CSV column {names[np.argmin(finite)]!r}")
        fileobj.write(template.replace(_LEAD, _cell(lead)) % tuple(block.ravel().tolist()))
