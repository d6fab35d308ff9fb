"""Panel time-series container plus long-format CSV ingestion and export.

The on-disk format is a long CSV with header ``date,entity,layer,value``;
ingestion pivots it into a (T, entities, layers) cube with labels sorted
lexicographically so identical data always yields an identical cube.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import re
from array import array
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

CSV_HEADER = ["date", "entity", "layer", "value"]
_BLOCK = 8192  # characters a CSV reader takes at a time, then to a line end
CUBE = ".cube"  # suffix of the binary cube written beside a panel CSV
_CUBE_FORMAT = "multitar-cube 2"


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
    without one field per header name, or one ``csv.reader`` refuses (such as
    a field longer than ``csv.field_size_limit()``), fails with its row,
    after the rows before it.  A block of lines no longer than that limit,
    with no quote, CRLF or LF throughout, and one comma fewer than ``header``
    has names on every line is split on commas; from any other block on,
    ``csv.reader`` reads the file, as a quoted field may span lines.  A
    byte-order mark before the header is dropped; a byte that is not UTF-8
    reads as a lone surrogate, which labels and values refuse."""
    n, limit = len(header), csv.field_size_limit()
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        try:
            first = next(csv.reader(fh), None)
        except csv.Error as error:
            raise ValueError(f"row 1: {error}") from None
        if first != header:
            raise ValueError(f"expected header {','.join(header)!r}, got {first!r}")
        row_no = 2
        while text := fh.read(_BLOCK) + fh.readline():
            eol = "\r\n" if "\r" in text else "\n"
            lines = text.removesuffix(eol).split(eol)
            joined = ",".join(lines)
            if (len(text) <= limit and not any(c in joined for c in '"\r\n')
                    and set(map(str.count, lines, itertools.repeat(","))) == {n - 1}):
                fields = joined.split(",")
                yield (np.arange(row_no, row_no + len(lines)),
                       [fields[c::n] for c in range(n)])
                row_no += len(lines)
                continue
            records = _reader(itertools.chain(io.StringIO(text, newline=""), fh))
            rows = ((no, *row) for no, row in enumerate(records, row_no) if row)
            while block := list(itertools.islice(rows, _BLOCK // 32)):
                k = next((k for k, row in enumerate(block) if len(row) != n + 1),
                         len(block))
                if k:
                    nos, *columns = zip(*block[:k])
                    yield np.array(nos), columns
                if k < len(block):
                    no, *fields = block[k]
                    raise ValueError(f"row {no}: " + (
                        str(fields[0]) if isinstance(fields[0], csv.Error)
                        else f"expected {n} fields, got {len(fields)}"))


def _reader(lines):
    """``csv.reader``'s records of ``lines``; one it refuses ends them as
    ``[csv.Error]``."""
    try:
        yield from csv.reader(lines)
    except csv.Error as error:
        yield [error]


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
    # three buffers grow, not one per column, so the heap fragments less:
    # each row's label ids, each row's number and each row's parsed fields
    ints, nums, floats = array("i"), array("q"), array("d")
    for nos, columns in _csv_blocks(path, header):
        rows = np.empty((len(nos), m), np.int32)
        try:
            parsed = [array("d", map(*pc)) for pc in zip(parsers, columns[m:])]
            for axis, fields in zip(axes, label_fields):
                # the axis's labels row by row, so new ones take ids in order
                cols = [columns[c] for c in fields]
                labels = cols[0] if len(cols) == 1 else itertools.chain(*zip(*cols))
                rows[:, fields] = np.fromiter(map(axis.__getitem__, labels),
                                              np.int32).reshape(-1, len(fields))
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
        ints.frombytes(rows.tobytes())
        nums.frombytes(np.asarray(nos, np.int64).tobytes())
        floats.frombytes(np.column_stack(parsed).tobytes())
    return (axes, np.frombuffer(ints, np.int32).reshape(-1, m).T,
            np.frombuffer(floats).reshape(-1, n).T, np.frombuffer(nums, np.int64))


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

    labels, cells = [], np.zeros(values.size, np.int64)  # sorted labels; row cells
    for axis, idx in zip(seen, ids):
        labels.append(sorted(axis))
        # argsort inverts the map from sorted place to first-appearance id
        cells *= len(labels[-1])
        cells += np.argsort([axis[label] for label in labels[-1]])[idx]
    cube = np.empty(tuple(map(len, labels)))
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


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):  # 1 MiB at a time
            digest.update(chunk)
    return digest.hexdigest()


def write_cube(panel: PanelSeries, path) -> None:
    """Write at ``path`` the cube of the CSV :func:`export_panel` wrote at
    ``path`` less :data:`CUBE`: a JSON line (format tag, sha256 of the CSV and
    of the payload, labels), then the payload, little-endian doubles in C
    order; none if a parse would sort an axis."""
    if any(list(axis) != sorted(axis) for axis in (panel.entities, panel.layers)):
        return
    payload = np.ascontiguousarray(panel.values, "<f8")
    head = {"format": _CUBE_FORMAT, "sha256": _sha256(str(path).removesuffix(CUBE)),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "dates": panel.dates, "entities": panel.entities, "layers": panel.layers}
    with open(path, "wb") as fh:
        fh.write(json.dumps(head, sort_keys=True, ensure_ascii=True).encode() + b"\n")
        payload.tofile(fh)


def read_panel(path, on_missing: str = "reject") -> PanelSeries:
    """:func:`ingest_csv` of ``path``, loaded from the cube beside it while the
    digests it records match the CSV and the payload; a cube not used is logged."""
    if on_missing not in ("reject", "ffill"):  # ingest_csv raises, before any cube
        return ingest_csv(path, on_missing)
    try:
        with open(str(path) + CUBE, "rb") as fh:
            head = json.loads(fh.readline())
            labels = [head[axis] for axis in ("dates", "entities", "layers")]
            values = np.empty(tuple(map(len, labels)), "<f8")
            if (head["format"] != _CUBE_FORMAT or head["sha256"] != _sha256(path)
                    or fh.readinto(values) != values.nbytes or fh.read(1)
                    or hashlib.sha256(values).hexdigest() != head["payload_sha256"]):
                raise ValueError("its format tag, a digest or its length does not match")
            return PanelSeries(*labels, values)
    except (OSError, ValueError, KeyError, TypeError) as error:
        if not isinstance(error, FileNotFoundError):  # no cube, or no CSV
            logger.info("%s%s not used: %s", path, CUBE, error)
    return ingest_csv(path, on_missing)
