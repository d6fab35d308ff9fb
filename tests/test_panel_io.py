"""Panel CSV ingestion, validation, and canonical round-trips."""

import codecs
import csv
import io
import math
import os
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multitar.multinet import apply_filter, from_coefficient
from multitar.panel import (CSV_HEADER, PanelSeries, csv_field, export_panel,
                            ingest_csv)
from multitar.pipeline import NETWORK_HEADER, export_network, import_network

# The label alphabet of the round trips: any text XML 1.0 can carry, so no C0
# control other than tab, LF and CR, no lone surrogate, no U+FFFE or U+FFFF.
_LABEL_CHARS = st.characters(
    codec="utf-8",
    exclude_characters="".join(chr(c) for c in range(32) if chr(c) not in "\t\n\r")
    + "\ufffe\uffff")


def write_rows(path, rows, header="date,entity,layer,value"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestIngest:
    def test_minimal_panel(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.5",
            "2020-01-02,AAA,price,2.5",
        ])
        panel = ingest_csv(f)
        assert panel.values.shape == (2, 1, 1)
        assert panel.dates == ("2020-01-01", "2020-01-02")

    def test_labels_sorted_regardless_of_row_order(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,ZZ,vol,1",
            "2020-01-01,AA,vol,2",
            "2020-01-01,ZZ,iv,3",
            "2020-01-01,AA,iv,4",
        ])
        panel = ingest_csv(f)
        assert panel.entities == ("AA", "ZZ")
        assert panel.layers == ("iv", "vol")
        assert panel.values[0, 0, 1] == 2.0  # AA, vol

    def test_duplicate_key_reports_row_number(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.0",
            "2020-01-01,AAA,price,2.0",
        ])
        with pytest.raises(ValueError, match="row 3: duplicate"):
            ingest_csv(f)

    def test_non_numeric_reports_row_number(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, ["2020-01-01,AAA,price,abc"])
        with pytest.raises(ValueError, match="row 2: non-numeric"):
            ingest_csv(f)

    def test_ragged_panel_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.0",
            "2020-01-01,BBB,price,2.0",
            "2020-01-02,AAA,price,3.0",
        ])
        with pytest.raises(ValueError, match="ragged panel"):
            ingest_csv(f)

    def test_forward_fill_policy(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.0",
            "2020-01-01,BBB,price,2.0",
            "2020-01-02,AAA,price,3.0",
        ])
        panel = ingest_csv(f, on_missing="ffill")
        assert panel.values[1, 1, 0] == 2.0

    def test_gap_on_first_date_still_fails_with_ffill(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.0",
            "2020-01-02,AAA,price,3.0",
            "2020-01-02,BBB,price,2.0",
        ])
        with pytest.raises(ValueError, match="ragged panel"):
            ingest_csv(f, on_missing="ffill")

    def test_duplicate_names_earliest_repeating_row(self, tmp_path):
        # two duplicate pairs; the one whose cell sorts first repeats last
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,BBB,price,1.0",
            "2020-01-01,AAA,price,2.0",
            "2020-01-01,BBB,price,3.0",
            "2020-01-01,AAA,price,4.0",
        ])
        with pytest.raises(ValueError, match=r"^row 4: duplicate entry for "
                           r"\('2020-01-01', 'BBB', 'price'\)$"):
            ingest_csv(f)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_reports_row_number(self, tmp_path, text):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.0",
            "",
            f"2020-01-02,AAA,price,{text}",
        ])
        with pytest.raises(ValueError, match="^row 4: non-finite value"):
            ingest_csv(f)

    def test_parse_fault_reported_before_grid_fault(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-01,AAA,price,1.0",
            "2020-01-01,AAA,price,2.0",
            "2020-01-02,AAA,price,abc",
        ])
        with pytest.raises(ValueError, match="^row 4: non-numeric"):
            ingest_csv(f)

    def test_forward_fill_across_consecutive_gaps(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, [
            "2020-01-03,AAA,price,5.0",
            "2020-01-01,AAA,price,1.0",
            "2020-01-01,BBB,price,2.0",
            "2020-01-02,AAA,price,3.0",
            "2020-01-04,BBB,price,6.0",
        ])
        panel = ingest_csv(f, on_missing="ffill")
        np.testing.assert_array_equal(panel.values[:, :, 0],
                                      [[1.0, 2.0], [3.0, 2.0], [5.0, 2.0],
                                       [5.0, 6.0]])

    def test_bad_header(self, tmp_path):
        f = tmp_path / "p.csv"
        write_rows(f, ["2020-01-01,AAA,price,1.0"], header="a,b,c,d")
        with pytest.raises(ValueError, match="header"):
            ingest_csv(f)

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        dates = [f"2020-01-{d:02d}" for d in range(1, 21)]
        panel = PanelSeries(
            dates=dates,
            entities=[f"E{i}" for i in range(5)],
            layers=[f"L{j}" for j in range(4)],
            values=rng.standard_normal((20, 5, 4)),
        )
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        export_panel(panel, first)
        export_panel(ingest_csv(first), second)
        assert first.read_bytes() == second.read_bytes()


def _sorted_labels(max_size):
    return st.lists(st.text(_LABEL_CHARS, max_size=6), min_size=1,
                    max_size=max_size, unique=True).map(sorted)


@st.composite
def panels(draw):
    """Panels with arbitrary labels, sorted as ingestion sorts them."""
    dates, entities, layers = (draw(_sorted_labels(n)) for n in (4, 3, 3))
    values = draw(arrays(np.float64, (len(dates), len(entities), len(layers)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return PanelSeries(dates=dates, entities=entities, layers=layers,
                       values=values)


# labels given sorted, as ingestion sorts them
_AWKWARD = PanelSeries(dates=["", "\n", "a,b"], entities=["lone\rcr", 'q"'],
                       layers=[" ", "y\r\nz"], values=np.full((3, 2, 2), -0.0))


# Both long-CSV readers: the reader, its header, one valid data row, and its
# message for a file that holds no data rows.
_READERS = {
    "panel": (ingest_csv, CSV_HEADER, "2020-01-01,AAA,price,1.0",
              "panel file contains no data rows"),
    "network": (import_network, NETWORK_HEADER, "A,x,A,x,2.0,0.5,true",
                "network CSV contains no edges"),
}


# A run of valid rows that spans several read blocks, for each reader: a
# 1 x 2000 x 1 panel grid and a complete 45 x 1 network grid.
_VALID_RUN = {
    "panel": "".join(f"2020-01-01,E{i:04d},price,1.0\n" for i in range(2000)),
    "network": "".join(f"A{i:02d},x,A{j:02d},x,2.0,0.5,true\n"
                       for i in range(45) for j in range(45)),
}


@pytest.mark.parametrize("case", ["header", "empty-file", "header-only",
                                  "field-count", "blank-line",
                                  "late-field-count", "late-blank-line"])
@pytest.mark.parametrize("reader", list(_READERS))
def test_shared_row_rules(tmp_path, reader, case):
    read, header, row, no_rows = _READERS[reader]
    head, k = ",".join(header), len(header)
    run = _VALID_RUN[reader]
    n = run.count("\n")
    text, message = {
        "header": (f"{','.join(header[:-1])}\n{row}\n",
                   f"expected header {head!r}, got {header[:-1]!r}"),
        "empty-file": ("", f"expected header {head!r}, got None"),
        "header-only": (f"{head}\n", no_rows),
        "field-count": (f"{head}\n{row}\n{row.rsplit(',', 1)[0]}\n",
                        f"row 3: expected {k} fields, got {k - 1}"),
        # the blank row 2 is skipped, yet the rows after it keep their number
        "blank-line": (f"{head}\n\n{row},x\n",
                       f"row 3: expected {k} fields, got {k + 1}"),
        # the same faults after rows that span several read blocks
        "late-field-count": (f"{head}\n{run}{row.rsplit(',', 1)[0]}\n",
                             f"row {n + 2}: expected {k} fields, got {k - 1}"),
        "late-blank-line": (f"{head}\n{run}\n{row},x\n",
                            f"row {n + 3}: expected {k} fields, got {k + 1}"),
    }[case]
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)
    if case == "blank-line":  # blank lines anywhere after the header read
        path.write_text(f"{head}\r\n\r\n{row}\r\n\r\n", encoding="utf-8")
        read(path)


class TestExportAnyLabel:
    @settings(max_examples=60, deadline=None)
    @given(panel=panels())
    @example(panel=_AWKWARD)
    def test_round_trip(self, panel):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            export_panel(panel, path)
            back = ingest_csv(path)
        assert (back.dates, back.entities, back.layers) == (
            panel.dates, panel.entities, panel.layers)
        assert back.values.tobytes() == panel.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(panel=panels(), seed=st.integers(0, 2**32 - 1))
    @example(panel=_AWKWARD, seed=0)
    def test_shuffled_rows_ingest_alike(self, panel, seed):
        # labels first appear in shuffled order but still come back sorted
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            export_panel(panel, path)
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            random.Random(seed).shuffle(rows)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header] + rows)
            back = ingest_csv(path)
        assert (back.dates, back.entities, back.layers) == (
            panel.dates, panel.entities, panel.layers)
        assert back.values.tobytes() == panel.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(panel=panels())
    @example(panel=_AWKWARD)
    def test_bytes_equal_csv_writer(self, panel):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for t, date in enumerate(panel.dates):
            for i, entity in enumerate(panel.entities):
                for j, layer in enumerate(panel.layers):
                    writer.writerow([date, entity, layer,
                                     repr(float(panel.values[t, i, j]))])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            export_panel(panel, path)
            with open(path, "rb") as fh:
                assert fh.read() == buf.getvalue().encode("utf-8")


def test_export_refuses_label_utf8_cannot_encode(tmp_path):
    # the panel refuses the label when it is built, so export_panel cannot
    # meet it
    with pytest.raises(ValueError, match=re.escape(
            "XML 1.0 cannot carry the label 'c\\ud800'")):
        PanelSeries(dates=["d"], entities=["c\ud800"], layers=["x"],
                    values=np.ones((1, 1, 1)))


_PANEL = b"date,entity,layer,value\n2020-01-01,A,x,1.0\n2020-01-02,A,x,2.0\n"
_NETWORK = b"src_entity,src_layer,dst_entity,dst_layer,weight,p_value,kept\n"
# headers and the valid runs above, which span several read blocks
_PANEL_RUN = b"date,entity,layer,value\n" + _VALID_RUN["panel"].encode()
_NETWORK_RUN = _NETWORK + _VALID_RUN["network"].encode()
# a file holding one byte that is not UTF-8 (0xff), its reader and message
_NOT_UTF8 = {
    "panel-header": (ingest_csv, b"date,enti\xffty,layer,value\n",
                     "expected header 'date,entity,layer,value', got "
                     "['date', 'enti\\udcffty', 'layer', 'value']"),
    "panel-date": (ingest_csv, _PANEL + b"2020-01-0\xff3,A,x,3.0\n",
                   "row 4: XML 1.0 cannot carry the label '2020-01-0\\udcff3'"),
    "panel-entity": (ingest_csv, _PANEL + b"2020-01-03,A\xff,x,3.0\n",
                     "row 4: XML 1.0 cannot carry the label 'A\\udcff'"),
    "panel-value": (ingest_csv, _PANEL + b"2020-01-03,A,x,3\xff.0\n",
                    "row 4: non-numeric value '3\\udcff.0'"),
    "network-label": (import_network, _NETWORK + b"A\xff,x,A\xff,x,2.0,0.5,true\n",
                      "row 2: XML 1.0 cannot carry the label 'A\\udcff'"),
    "network-weight": (import_network, _NETWORK + b"A,x,A,x,2\xff.0,0.5,true\n",
                       "row 2, column weight: could not convert string to "
                       "float: '2\\udcff.0'"),
    "network-kept": (import_network, _NETWORK + b"A,x,A,x,2.0,0.5,tr\xffue\n",
                     "row 2, column kept: expected true or false, got "
                     "'tr\\udcffue'"),
    # the same bytes after 2000 and 2025 valid rows
    "panel-late-entity": (ingest_csv, _PANEL_RUN + b"2020-01-01,A\xff,x,3.0\n",
                          "row 2002: XML 1.0 cannot carry the label 'A\\udcff'"),
    "panel-late-value": (ingest_csv, _PANEL_RUN + b"2020-01-01,A,x,3\xff.0\n",
                         "row 2002: non-numeric value '3\\udcff.0'"),
    "network-late-label": (import_network,
                           _NETWORK_RUN + b"A\xff,x,A\xff,x,2.0,0.5,true\n",
                           "row 2027: XML 1.0 cannot carry the label 'A\\udcff'"),
    "network-late-weight": (import_network,
                            _NETWORK_RUN + b"A,x,A,x,2\xff.0,0.5,true\n",
                            "row 2027, column weight: could not convert string "
                            "to float: '2\\udcff.0'"),
    "network-late-kept": (import_network,
                          _NETWORK_RUN + b"A,x,A,x,2.0,0.5,tr\xffue\n",
                          "row 2027, column kept: expected true or false, got "
                          "'tr\\udcffue'"),
}


@pytest.mark.parametrize("case", list(_NOT_UTF8))
def test_byte_not_utf8_refused(tmp_path, case):
    # the reader decodes such a byte to a lone surrogate, which the header
    # match, the label rule or a value parser refuses
    read, data, message = _NOT_UTF8[case]
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)


# the four rows of a complete 2 x 1 network, with B\xff for B in row 4
_NETWORK_2X1 = _NETWORK + b"".join(
    b"%s,x,%s,x,1.0,0.5,true\n" % pair
    for pair in ((b"A", b"A"), (b"A", b"B"), (b"B\xff", b"A"), (b"B", b"B")))
# a refused label in an earlier row is named before a fault in a later row or
# in the grid: the reader, its file and its message
_EARLIER_LABEL = {
    "panel-value": (ingest_csv, _PANEL + b"2020-01-01,b\x01,x,1.0\n"
                    b"2020-01-02,b\x01,x,zz\n",
                    "row 4: XML 1.0 cannot carry the label 'b\\x01'"),
    "panel-field-count": (ingest_csv, _PANEL + b"2020-01-01,b\x01,x,1.0\n"
                          b"2020-01-02,b\x01,x,1,0\n",
                          "row 4: XML 1.0 cannot carry the label 'b\\x01'"),
    "network-grid": (import_network, _NETWORK_2X1,
                     "row 4: XML 1.0 cannot carry the label 'B\\udcff'"),
    "network-weight": (import_network, _NETWORK_2X1 + b"A,x,A,x,abc,0.5,true\n",
                       "row 4: XML 1.0 cannot carry the label 'B\\udcff'"),
    "network-field-count": (import_network, _NETWORK_2X1 + b"A,x\n",
                            "row 4: XML 1.0 cannot carry the label 'B\\udcff'"),
    # both faulty rows in one block, after 2000 and 2025 valid rows
    "panel-late-value": (ingest_csv, _PANEL_RUN + b"2020-01-01,b\x01,x,1.0\n"
                         b"2020-01-02,b\x01,x,zz\n",
                         "row 2002: XML 1.0 cannot carry the label 'b\\x01'"),
    "panel-late-field-count": (ingest_csv, _PANEL_RUN + b"2020-01-01,b\x01,x,1.0\n"
                               b"2020-01-02,b\x01,x,1,0\n",
                               "row 2002: XML 1.0 cannot carry the label 'b\\x01'"),
    "network-late-weight": (import_network, _NETWORK_RUN
                            + b"B\xff,x,A00,x,1.0,0.5,true\n"
                            b"A00,x,A00,x,abc,0.5,true\n",
                            "row 2027: XML 1.0 cannot carry the label 'B\\udcff'"),
    "network-late-grid": (import_network, _NETWORK_RUN.replace(
                              b"A44,x,A44,", b"A44\xff,x,A44,"),
                          "row 2026: XML 1.0 cannot carry the label 'A44\\udcff'"),
}


@pytest.mark.parametrize("case", list(_EARLIER_LABEL))
def test_earliest_faulty_row_is_named(tmp_path, case):
    read, data, message = _EARLIER_LABEL[case]
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)


# a grid fault after rows that span several read blocks: the reader, the text
# after the header and its message
_LATE_GRID = {
    "panel-duplicate": (ingest_csv, _VALID_RUN["panel"] + "2020-01-01,E1500,price,2.0\n",
                        "row 2002: duplicate entry for "
                        "('2020-01-01', 'E1500', 'price')"),
    "panel-missing": (ingest_csv, _VALID_RUN["panel"] + "2020-01-02,E0000,price,2.0\n",
                      "ragged panel: missing ('2020-01-02', 'E0001', 'price')"),
    "network-duplicate": (import_network,
                          _VALID_RUN["network"] + "A30,x,A07,x,2.0,0.5,true\n",
                          "row 2027: duplicate of the edge in row 1359"),
    "network-missing": (import_network,
                        _VALID_RUN["network"].replace("A44,x,A40,x,2.0,0.5,true\n", ""),
                        "incomplete edge grid: no row for the edge from "
                        "('A44', 'x') to ('A40', 'x')"),
}


@pytest.mark.parametrize("case", list(_LATE_GRID))
def test_late_grid_fault(tmp_path, case):
    read, rows, message = _LATE_GRID[case]
    header = CSV_HEADER if read is ingest_csv else NETWORK_HEADER
    path = tmp_path / "long.csv"
    path.write_text(",".join(header) + "\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)


# A UTF-8 byte-order mark before the header (Excel's "CSV UTF-8") is dropped;
# one inside a label stays part of it: the reader, its rows and the entities
# it reads.
_BOM = {
    "panel": (ingest_csv, ["2020-01-01,A,x,1.0", "2020-01-01,\ufeffB,x,2.0"],
              lambda panel: panel.entities),
    "network": (import_network, [f"{src},x,{dst},x,1.0,0.5,true"
                                 for src in ("A", "\ufeffB")
                                 for dst in ("A", "\ufeffB")],
                lambda net: net.entity_labels),
}


@pytest.mark.parametrize("reader", list(_BOM))
def test_byte_order_mark_before_header(tmp_path, reader):
    read, rows, entities = _BOM[reader]
    header = CSV_HEADER if read is ingest_csv else NETWORK_HEADER
    path = tmp_path / "long.csv"
    path.write_bytes(codecs.BOM_UTF8 + "\r\n".join(
        [",".join(header)] + rows).encode("utf-8"))
    assert entities(read(path)) == ("A", "\ufeffB")


# Block split and csv.reader agree: files that span several read blocks, with
# either line ending, blank lines and shuffled rows, read to what a csv.reader
# oracle reads from them.

def _rewrite(path, eol, blanks=(), seed=None):
    """Rewrite a long CSV with ``eol`` line ends, its data rows shuffled by
    ``seed`` (``None`` keeps their order) and a blank line before each data
    row whose index is in ``blanks`` (modulo the row count)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    lines = [",".join(map(csv_field, row)) for row in rows]
    for k in sorted({b % len(lines) for b in blanks}, reverse=True):
        lines.insert(k, "")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(line + eol for line in [",".join(header)] + lines))


def _oracle_rows(path, header):
    """The non-blank records after ``header``, as ``csv.reader`` reads them."""
    with open(path, newline="", encoding="utf-8") as fh:
        first, *rows = csv.reader(fh)
    assert first == header
    return [row for row in rows if row]


def _oracle_panel(path):
    """(dates, entities, layers, values) of a panel CSV, by ``csv.reader``."""
    rows = _oracle_rows(path, CSV_HEADER)
    axes = [sorted({row[c] for row in rows}) for c in range(3)]
    index = [{label: i for i, label in enumerate(axis)} for axis in axes]
    values = np.empty(tuple(map(len, axes)))
    for *labels, raw in rows:
        values[tuple(ix[label] for ix, label in zip(index, labels))] = float(raw)
    return (*map(tuple, axes), values)


def _oracle_network(path):
    """(entities, layers, weights, p-values, kept) of a network CSV, labels in
    order of first appearance, by ``csv.reader``."""
    rows = _oracle_rows(path, NETWORK_HEADER)
    entities = list(dict.fromkeys(r[c] for r in rows for c in (0, 2)))
    layers = list(dict.fromkeys(r[c] for r in rows for c in (1, 3)))
    shape = (len(layers), len(layers), len(entities), len(entities))
    grids = [np.empty(shape), np.empty(shape), np.empty(shape, bool)]
    for src, src_layer, dst, dst_layer, *fields in rows:
        cell = (layers.index(src_layer), layers.index(dst_layer),
                entities.index(src), entities.index(dst))
        for grid, field in zip(grids, fields):
            grid[cell] = field == "true" if grid.dtype == bool else float(field)
    return (tuple(entities), tuple(layers), *grids)


def _spread(labels, copies):
    """``labels`` repeated under ``copies`` zero-padded prefixes, still sorted."""
    return [f"{i:05d}{label}" for i in range(copies) for label in labels]


def _long_panel(panel):
    """``panel`` with its dates spread until it has at least 1500 rows."""
    copies = math.ceil(1500 / panel.values.size)
    return PanelSeries(dates=_spread(panel.dates, copies), entities=panel.entities,
                       layers=panel.layers,
                       values=np.tile(panel.values, (copies, 1, 1)))


def _long_network(entities, layers, seed):
    """A hard-filtered network on ``entities`` spread until it has at least
    500 edges."""
    copies = math.ceil(math.sqrt(500) / (len(entities) * len(layers)))
    entities = _spread(entities, copies)
    n_e, n_l = len(entities), len(layers)
    weights = np.random.default_rng(seed).standard_normal((n_e, n_l, n_e, n_l))
    return apply_filter(from_coefficient(weights, entities, layers), "hard", 0.3)


_REWRITES = dict(eol=st.sampled_from(["\r\n", "\n"]),
                 blanks=st.lists(st.integers(0, 10**6), max_size=3),
                 seed=st.none() | st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(panel=panels(), **_REWRITES)
@example(panel=_AWKWARD, eol="\n", blanks=[7], seed=None)
@example(panel=_AWKWARD, eol="\r\n", blanks=[], seed=0)
def test_block_split_agrees_with_csv_reader_on_panels(panel, eol, blanks, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        export_panel(_long_panel(panel), path)
        _rewrite(path, eol, blanks, seed)
        back, (*labels, values) = ingest_csv(path), _oracle_panel(path)
    assert [back.dates, back.entities, back.layers] == labels
    assert back.values.tobytes() == values.tobytes()


@settings(max_examples=30, deadline=None)
@given(panel=panels(), **_REWRITES)
@example(panel=_AWKWARD, eol="\n", blanks=[7], seed=None)
@example(panel=_AWKWARD, eol="\r\n", blanks=[], seed=0)
def test_block_split_agrees_with_csv_reader_on_networks(panel, eol, blanks, seed):
    # network CSVs end lines with LF as written; labels come from panels()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "network.csv")
        export_network(_long_network(panel.entities, panel.layers, seed or 0),
                       path, "csv")
        _rewrite(path, eol, blanks, seed)
        back, want = import_network(path), _oracle_network(path)
    assert (back.entity_labels, back.layer_labels) == want[:2]
    for got, grid in zip((back.blocks, back.p_values, back.kept), want[2:]):
        assert got.tobytes() == grid.tobytes()


@pytest.mark.parametrize("eol", ["\r\n", "\n"])
@pytest.mark.parametrize("label", ["z,comma", 'z"quote', "z\r\ncrlf"])
def test_first_quoted_label_after_first_block(tmp_path, label, eol):
    # the rows before the label split on commas, the rest go through csv.reader
    panel = PanelSeries(dates=[f"2020-{i:04d}" for i in range(400)] + [label],
                        entities=["A", "B"], layers=["x"],
                        values=np.arange(802.0).reshape(401, 2, 1) / 7)
    path = tmp_path / "panel.csv"
    export_panel(panel, path)
    _rewrite(path, eol)
    assert path.read_text(encoding="utf-8").index('"') > 8192
    back, (*labels, values) = ingest_csv(path), _oracle_panel(path)
    assert [back.dates, back.entities, back.layers] == labels
    assert back.values.tobytes() == values.tobytes()

    net = _long_network([f"e{i:02d}" for i in range(20)], ["x", label], 0)
    path = tmp_path / "network.csv"
    export_network(net, path, "csv")
    _rewrite(path, eol)
    assert path.read_text(encoding="utf-8").index('"') > 8192
    back, want = import_network(path), _oracle_network(path)
    assert (back.entity_labels, back.layer_labels) == want[:2]
    for got, grid in zip((back.blocks, back.p_values, back.kept), want[2:]):
        assert got.tobytes() == grid.tobytes()


class TestPanelSeries:
    def test_non_increasing_dates_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PanelSeries(dates=["2020-01-02", "2020-01-01"], entities=["A"],
                        layers=["x"], values=np.ones((2, 1, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            PanelSeries(dates=["2020-01-01"], entities=["A"], layers=["x"],
                        values=np.array([[[np.nan]]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            PanelSeries(dates=["2020-01-01"], entities=["A", "B"], layers=["x"],
                        values=np.ones((1, 1, 1)))

    def test_columns_view(self):
        panel = PanelSeries(dates=["2020-01-01", "2020-01-02"],
                            entities=["A", "B"], layers=["x"],
                            values=np.arange(4.0).reshape(2, 2, 1))
        np.testing.assert_array_equal(panel.columns(),
                                      [[0.0, 1.0], [2.0, 3.0]])
