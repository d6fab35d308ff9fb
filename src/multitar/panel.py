"""Panel time-series container plus long-format CSV ingestion and export.

The on-disk format is a long CSV with header ``date,entity,layer,value``;
ingestion pivots it into a (T, entities, layers) cube with labels sorted
lexicographically so identical data always yields an identical cube.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import re
from array import array
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

CSV_HEADER = ["date", "entity", "layer", "value"]
_BLOCK = 8192  # characters a CSV reader takes at a time, then to a line end


def csv_field(label: str) -> str:
    """Quote a CSV field as the excel dialect does (RFC 4180): in double
    quotes, with inner quotes doubled, when it holds a comma, a quote, CR or
    LF.  Every CSV writer of the package quotes through this rule instead of
    ``csv.writer``, whose quoting follows its line terminator."""
    quote = any(c in label for c in ',"\r\n')
    return '"' + label.replace('"', '""') + '"' if quote else label


# characters XML 1.0 cannot carry, not even as a reference (XML 1.0 section
# 2.2); lone surrogates are among them, so every legal label encodes as UTF-8
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_labels(*labels, where: str = "") -> None:
    """Refuse a label XML 1.0 cannot carry; panels and networks check theirs
    when built, so no writer meets one.  ``where`` prefixes the message."""
    bad = next(filter(_NOT_XML.search, labels), None)
    if bad is not None:
        raise ValueError(f"{where}XML 1.0 cannot carry the label {bad!r}")


@dataclass(frozen=True)
class PanelSeries:
    """Observation cube with strictly increasing ISO dates and no gaps."""

    dates: tuple
    entities: tuple
    layers: tuple
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(str(d) for d in self.dates)
        entities = tuple(str(e) for e in self.entities)
        layers = tuple(str(l) for l in self.layers)
        _check_labels(*dates, *entities, *layers)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(dates), len(entities), len(layers)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"({len(dates)}, {len(entities)}, {len(layers)})"
            )
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if len(set(entities)) != len(entities) or len(set(layers)) != len(layers):
            raise ValueError("entity and layer labels must be unique")
        if not np.all(np.isfinite(values)):
            raise ValueError("panel contains NaN or Inf")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "entities", entities)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "values", values)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def columns(self) -> np.ndarray:
        """(T, entities * layers) view used by per-series operations."""
        return self.values.reshape(self.n_dates, -1)


def _csv_blocks(path, header):
    """Yield ``(row_nos, columns)`` a block at a time for the non-blank
    records of a long CSV whose first record is exactly ``header``, numbered
    from the header as row 1.  A blank line is skipped but counted; a record
    without one field per header name fails with its row, after the rows
    before it.  A block of lines with no quote, CRLF or LF throughout, and
    one comma fewer than ``header`` has names on every line is split on
    commas; from any other block on, ``csv.reader`` reads the file, as a
    quoted field may span lines.  A byte-order mark before the header is
    dropped; a byte that is not UTF-8 reads as a lone surrogate, which labels
    and values refuse."""
    n = len(header)
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        first = next(csv.reader(fh), None)
        if first != header:
            raise ValueError(f"expected header {','.join(header)!r}, got {first!r}")
        row_no = 2
        while text := fh.read(_BLOCK) + fh.readline():
            eol = "\r\n" if "\r" in text else "\n"
            lines = text.removesuffix(eol).split(eol)
            joined = ",".join(lines)
            if (not any(c in joined for c in '"\r\n')
                    and set(map(str.count, lines, itertools.repeat(","))) == {n - 1}):
                fields = joined.split(",")
                yield (np.arange(row_no, row_no + len(lines)),
                       [fields[c::n] for c in range(n)])
                row_no += len(lines)
                continue
            records = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
            rows = ((no, *row) for no, row in enumerate(records, row_no) if row)
            while block := list(itertools.islice(rows, _BLOCK // 32)):
                k = next((k for k, row in enumerate(block) if len(row) != n + 1),
                         len(block))
                if k:
                    nos, *columns = zip(*block[:k])
                    yield np.array(nos), columns
                if k < len(block):
                    raise ValueError(f"row {block[k][0]}: expected {n} fields, "
                                     f"got {len(block[k]) - 1}")


class _Ids(dict):
    """label -> id, a new label taking the next id; a label XML 1.0 cannot
    carry is refused."""

    def __missing__(self, label):
        _check_labels(label)
        self[label] = n = len(self)
        return n


def _read_long_csv(path, header, label_fields, parsers, fault):
    """Read a long CSV: axis ``a`` maps the labels of the fields
    ``label_fields[a]`` to ids in order of first appearance, row by row, and
    ``parsers`` parse the fields after them into doubles.  Return the axes,
    each field's ids or values, and the row numbers.  The earliest faulty row
    is named: a field its parser refuses, with the message ``fault``, or else
    a refused label."""
    axes = [_Ids() for _ in label_fields]
    m, n = len(header) - len(parsers), len(parsers)
    # two buffers grow, not one per column, so the heap fragments less:
    # each row's label ids and row number, and each row's parsed fields
    ints, floats = array("q"), array("d")
    for nos, columns in _csv_blocks(path, header):
        rows = np.empty((len(nos), m + 1), np.int64)
        try:
            parsed = [array("d", map(*pc)) for pc in zip(parsers, columns[m:])]
            for axis, fields in zip(axes, label_fields):
                # the axis's labels row by row, so new ones take ids in order
                cols = [columns[c] for c in fields]
                labels = cols[0] if len(cols) == 1 else itertools.chain(*zip(*cols))
                rows[:, fields] = np.fromiter(map(axis.__getitem__, labels),
                                              np.int64).reshape(-1, len(fields))
        except ValueError:  # the block holds a fault: name its earliest row
            for no, row in zip(nos, zip(*columns)):
                for c, (parse, field) in enumerate(zip(parsers, row[m:])):
                    try:
                        parse(field)
                    except ValueError as error:
                        raise ValueError(fault.format(
                            row=no, column=header[m + c], field=field,
                            error=error)) from None
                _check_labels(*row[:m], where=f"row {no}: ")
            raise
        rows[:, m] = nos
        ints.frombytes(rows.tobytes())
        floats.frombytes(np.column_stack(parsed).tobytes())
    *ids, row_nos = np.frombuffer(ints, np.int64).reshape(-1, m + 1).T
    return axes, ids, np.frombuffer(floats).reshape(-1, n).T, row_nos


def ingest_csv(path, on_missing: str = "reject") -> PanelSeries:
    """Read a long-format panel CSV into a :class:`PanelSeries`; the header
    and row rules are those of :func:`_csv_blocks`.

    ``on_missing`` selects how incomplete (date, entity, layer) grids are
    handled: ``"reject"`` raises, ``"ffill"`` carries the previous date's
    value forward (a gap on the first date is always an error).
    """
    if on_missing not in ("reject", "ffill"):
        raise ValueError("on_missing must be 'reject' or 'ffill'")
    # per axis: label -> id in order of first appearance; per row: its ids
    seen, ids, (values,), row_nos = _read_long_csv(
        path, CSV_HEADER, ((0,), (1,), (2,)), (float,),
        "row {row}: non-numeric value {field!r}")
    if not values.size:
        raise ValueError("panel file contains no data rows")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"row {row_nos[bad[0]]}: non-finite value {values[bad[0]]}")

    labels, pos = [], []  # per axis: sorted labels, each row's place in them
    for axis, idx in zip(seen, ids):
        labels.append(sorted(axis))
        # argsort inverts the map from sorted place to first-appearance id
        pos.append(np.argsort([axis[label] for label in labels[-1]])[idx])
    cube = np.empty(tuple(map(len, labels)))
    cells = np.ravel_multi_index(pos, cube.shape)
    counts = np.bincount(cells, minlength=cube.size)
    key = lambda cell: tuple(axis[k] for axis, k in zip(
        labels, np.unravel_index(cell, cube.shape)))
    if counts.max() > 1:
        first = np.unique(cells, return_index=True)[1]
        k = np.setdiff1d(np.arange(cells.size), first)[0]  # earliest repeat
        raise ValueError(f"row {row_nos[k]}: duplicate entry for {key(cells[k])}")
    missing = (counts == 0).reshape(cube.shape)
    fatal = missing if on_missing == "reject" else missing[:1]  # ffill the rest
    if fatal.any():
        raise ValueError(f"ragged panel: missing {key(np.argmax(fatal))}")

    cube.reshape(-1)[cells] = values
    if missing.any():
        for t in range(1, len(cube)):
            np.copyto(cube[t], cube[t - 1], where=missing[t])
        logger.info("forward-filled %d missing panel cells", missing.sum())
    return PanelSeries(*labels, cube)


def export_panel(panel: PanelSeries, path) -> None:
    """Write the canonical long-format CSV (sorted keys, repr floats, CRLF),
    one date at a time."""
    cells = [f"{entity},{layer}," for entity, layer in itertools.product(
        map(csv_field, panel.entities), map(csv_field, panel.layers))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for date, row in zip(map(csv_field, panel.dates), panel.columns()):
            fh.write("".join(f"{date},{cell}{v!r}\r\n"
                             for cell, v in zip(cells, row.tolist())))
