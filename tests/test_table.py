"""The CSV writer against ``'%.17g' % v`` and against the ``%``-template writer."""

import io
import tracemalloc
from itertools import compress, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fhjm import _table
from fhjm._table import write_rows
from fhjm.drift import DriftField, write_drift_csv
from fhjm.ledger import LedgerResult, write_ledger_csv


def _reference_cell(value) -> str:
    return str(value) if isinstance(value, (int, np.integer)) else f"{value:.17g}"


def reference_write_rows(fileobj, header, leads, axes, columns, write_header=True, keep=None):
    """The writer as it was: one ``%`` operation per block on a row template."""
    if write_header:
        fileobj.write(",".join(header) + "\n")
    prefixes = product(*([_reference_cell(v) for v in axis] for axis in axes))
    if keep is not None:
        prefixes = compress(prefixes, keep)
    tail = "".join("," if c is None else ",%.17g" for c in columns) + "\n"
    template = "".join("\x00," + ",".join(pre) + tail for pre in prefixes)
    names = [n for n, c in zip(header[-len(columns):], columns) if c is not None]
    values = [c for c in columns if c is not None]
    for b, lead in enumerate(leads):
        block = np.column_stack([c[b] for c in values])
        if keep is not None:
            block = block[keep]
        finite = np.isfinite(block).all(axis=0)
        if not finite.all():
            raise ValueError(f"non-finite value in CSV column {names[np.argmin(finite)]!r}")
        fileobj.write(template.replace("\x00", _reference_cell(lead)) % tuple(block.ravel().tolist()))


def written_cells(values) -> list:
    """The value cells ``write_rows`` writes for ``values``, one per row."""
    values = np.asarray(values, dtype=float).ravel()
    out = io.StringIO()
    write_rows(out, ["i", "v"], [0], (range(values.size),), [values[None, :]], write_header=False)
    return [line.rsplit(",", 1)[1] for line in out.getvalue().splitlines()]


def assert_cells_match(values):
    values = np.asarray(values, dtype=float).ravel()
    want = ["%.17g" % v for v in values.tolist()]
    got = written_cells(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def test_named_cells():
    named = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
             1.7976931348623157e308, -1.7976931348623157e308,
             100000000000000.125, 100000000000000.375, -100000000000000.125,
             0.099999999999999999, 0.1, 1.0, 0.5, 1e-5, 9.5367431640625e-07]
    for edge in (1e-11, 1e-4, 1e15):
        named += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    for j in range(-12, 17):
        # the doubles next to a power of ten, where a 17-digit carry would show
        power = float(f"1e{j}")
        named += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    named += [-v for v in named]
    assert_cells_match(named)


def test_ties_round_half_even():
    # 1e14 + k/8 has 18 significant digits and sits halfway at the 17th
    ties = np.array([1e14 + k / 8 for k in range(1, 64, 2)])
    assert written_cells(ties[:2]) == ["100000000000000.12", "100000000000000.38"]
    assert_cells_match(ties)
    assert_cells_match(-ties)


def test_cells_by_exponent_and_trailing_zeros():
    # every exponent the fast path prints, with 1 to 17 significant digits
    rng = np.random.default_rng(3)
    mantissas = np.concatenate([np.round(rng.uniform(1, 10, 400), d) for d in range(17)])
    for j in range(-12, 16):
        assert_cells_match(mantissas * 10.0**j)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([0.0, -0.0, 1e-11, 1e15, 100000000000000.125])
def test_cells_match_percent_format(values):
    assert_cells_match(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_cells_of_raw_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_cells_match(values[np.isfinite(values)])


def test_seeded_sweep_of_a_million_values():
    rng = np.random.default_rng(20260419)
    n = 1 << 18
    bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64)
    scaled = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-13, 17, n)
    short = np.round(rng.uniform(-100, 100, n), 3)
    near_one = 1.0 + rng.integers(-2**20, 2**20, n) * 2.0**-52
    values = np.concatenate([bits[np.isfinite(bits)], scaled, short, near_one])
    assert values.size >= 1_000_000
    out = io.StringIO()
    write_rows(out, ["i", "v"], [0], (range(values.size),), [values[None, :]], write_header=False)
    want = "".join(f"0,{i},{'%.17g' % v}\n" for i, v in enumerate(values.tolist()))
    assert out.getvalue() == want


def random_table(rng, n_blocks, axis_sizes, n_cols, empty=(), int_leads=True, int_axes=(0,)):
    leads = (range(7, 7 + n_blocks) if int_leads
             else np.sort(rng.uniform(0, 2, n_blocks)).round(rng.integers(1, 17)))
    axes = tuple(
        range(1, size + 1) if i in int_axes else np.linspace(0, rng.uniform(0.5, 3), size)
        for i, size in enumerate(axis_sizes)
    )
    n_rows = int(np.prod(axis_sizes))
    scales = 10.0 ** rng.integers(-14, 17, (n_blocks, n_rows))
    columns = [None if j in empty else rng.standard_normal((n_blocks, n_rows)) * scales
               for j in range(n_cols)]
    for c in columns:
        if c is not None:
            c[rng.uniform(size=c.shape) < 0.05] = 0.0
            c[rng.uniform(size=c.shape) < 0.05] = 1.0
    header = ["lead"] + [f"a{i}" for i in range(len(axes))] + [f"v{j}" for j in range(n_cols)]
    return header, leads, axes, columns


TABLES = [
    # (n_blocks, axis sizes, n_cols, empty columns, int leads, int axes, keep)
    (5, (7,), 1, (), True, (), False),
    (4, (3, 9), 2, (1,), True, (), True),  # bonds.csv: Z left empty, unpriced cells dropped
    (6, (11,), 3, (0,), False, (), False),  # drift.csv-like float leads
    (3, (2, 17), 1, (), True, (0,), False),  # paths.csv: int component axis
    (9, (5,), 4, (), True, (), False),  # ledger.csv
    (2, (4, 4), 3, (1, 2), False, (0, 1), True),
]


@pytest.mark.parametrize("pass_bytes", [1, 300, 2_000, 1 << 20])
@pytest.mark.parametrize("spec", TABLES)
def test_writer_matches_template_writer(monkeypatch, spec, pass_bytes):
    # small passes split blocks and straddle block boundaries
    monkeypatch.setattr(_table, "_PASS_BYTES", pass_bytes)
    n_blocks, sizes, n_cols, empty, int_leads, int_axes, use_keep = spec
    rng = np.random.default_rng(hash(spec) % 2**32)
    header, leads, axes, columns = random_table(rng, n_blocks, sizes, n_cols, empty, int_leads,
                                                int_axes)
    keep = rng.uniform(size=int(np.prod(sizes))) < 0.6 if use_keep else None
    for write_header in (True, False):
        want, got = io.StringIO(), io.StringIO()
        reference_write_rows(want, header, leads, axes, columns, write_header, keep)
        write_rows(got, header, leads, axes, columns, write_header, keep)
        assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pass_bytes", [300, 1 << 20])
def test_non_finite_names_the_same_column(monkeypatch, bad, pass_bytes):
    monkeypatch.setattr(_table, "_PASS_BYTES", pass_bytes)
    rng = np.random.default_rng(11)
    header, leads, axes, columns = random_table(rng, 6, (4, 5), 3, empty=(1,))
    keep = np.ones(20, dtype=bool)
    keep[3] = False
    cases = [
        [(2, 7, 0)],  # one bad cell
        [(4, 0, 2), (4, 19, 0)],  # the block's first bad column is named, not its first bad row
        [(3, 18, 2), (5, 0, 0)],  # the first bad block decides
        [(1, 3, 0), (2, 1, 2)],  # row 3 is not written
    ]
    for cells in cases:
        cols = [None if c is None else c.copy() for c in columns]
        for b, r, j in cells:
            cols[j][b, r] = bad
        with pytest.raises(ValueError) as want:
            reference_write_rows(io.StringIO(), header, leads, axes, cols, True, keep)
        with pytest.raises(ValueError, match="non-finite value in CSV column") as got:
            write_rows(io.StringIO(), header, leads, axes, cols, True, keep)
        assert str(got.value) == str(want.value)


def test_empty_tables_write_only_the_header():
    out = io.StringIO()
    write_rows(out, ["p", "t", "v"], range(3), ([0.5, 1.0],), [np.ones((3, 2))],
               keep=np.zeros(2, dtype=bool))
    write_rows(out, ["p", "t", "v"], [], ([0.5, 1.0],), [np.ones((0, 2))], write_header=False)
    assert out.getvalue() == "p,t,v\n"


class _Discard:
    def write(self, text):
        return len(text)


def _peak_bytes(write):
    write()  # lookup tables are built once, on first use
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_working_set_stays_small():
    rng = np.random.default_rng(5)
    shape = (200, 129)  # the portfolio benchmark's ledger: 200 paths, 129 times
    ledger = LedgerResult(times=np.linspace(0, 2, 129), gains=rng.standard_normal(shape),
                          costs=rng.uniform(size=shape), liquidation=rng.uniform(size=shape),
                          value=rng.standard_normal(shape), k=0.005)
    field = DriftField(t_points=np.linspace(0, 2, 513), x_points=np.linspace(0, 4, 1025),
                       values=1e-6 * rng.uniform(size=(513, 1025)))
    assert _peak_bytes(lambda: write_ledger_csv(ledger, _Discard())) <= 1.5e6
    assert _peak_bytes(lambda: write_drift_csv(field, _Discard())) <= 1.5e6
