"""Panel time-series container plus long-format CSV ingestion and export.

The on-disk format is a long CSV with header ``date,entity,layer,value``;
ingestion pivots it into a (T, entities, layers) cube with labels sorted
lexicographically so identical data always yields an identical cube.
"""

from __future__ import annotations

import csv
import itertools
import logging
from array import array
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

CSV_HEADER = ["date", "entity", "layer", "value"]


def csv_field(label: str) -> str:
    """Quote a CSV field as the excel dialect does (RFC 4180): in double
    quotes, with inner quotes doubled, when it holds a comma, a quote, CR or
    LF.  Every CSV writer of the package quotes through this rule instead of
    ``csv.writer``, whose quoting follows its line terminator."""
    quote = any(c in label for c in ',"\r\n')
    return '"' + label.replace('"', '""') + '"' if quote else label


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


def ingest_csv(path, on_missing: str = "reject") -> PanelSeries:
    """Read a long-format panel CSV into a :class:`PanelSeries`.

    ``on_missing`` selects how incomplete (date, entity, layer) grids are
    handled: ``"reject"`` raises, ``"ffill"`` carries the previous date's
    value forward (a gap on the first date is always an error).
    """
    if on_missing not in ("reject", "ffill"):
        raise ValueError("on_missing must be 'reject' or 'ffill'")
    # per axis: label -> id in order of first appearance; per row: its ids
    dates, entities, layers = seen = ({}, {}, {})
    ids, values, row_nos = [], array("d"), array("q")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(
                f"expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"row {row_no}: expected 4 fields, got {len(row)}")
            date, entity, layer, raw = row
            try:
                values.append(float(raw))
            except ValueError:
                raise ValueError(
                    f"row {row_no}: non-numeric value {raw!r}"
                ) from None
            ids.extend((dates.setdefault(date, len(dates)),
                        entities.setdefault(entity, len(entities)),
                        layers.setdefault(layer, len(layers))))
            row_nos.append(row_no)
    if not values:
        raise ValueError("panel file contains no data rows")
    values = np.frombuffer(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"row {row_nos[bad[0]]}: non-finite value {values[bad[0]]}")

    labels, pos = [], []  # per axis: sorted labels, each row's place in them
    for axis, idx in zip(seen, np.reshape(ids, (-1, 3)).T):
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
