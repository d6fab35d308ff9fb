"""Panel time-series container plus long-format CSV ingestion and export.

The on-disk format is a long CSV with header ``date,entity,layer,value``;
ingestion pivots it into a (T, entities, layers) cube with labels sorted
lexicographically so identical data always yields an identical cube.
"""

from __future__ import annotations

import csv
import itertools
import logging
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
    cells: dict = {}
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
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"row {row_no}: non-numeric value {raw!r}"
                ) from None
            key = (date, entity, layer)
            if key in cells:
                raise ValueError(f"row {row_no}: duplicate entry for {key}")
            cells[key] = value
    if not cells:
        raise ValueError("panel file contains no data rows")

    dates = sorted({k[0] for k in cells})
    entities = sorted({k[1] for k in cells})
    layers = sorted({k[2] for k in cells})
    values = np.empty((len(dates), len(entities), len(layers)))
    n_filled = 0
    for t, date in enumerate(dates):
        for i, entity in enumerate(entities):
            for j, layer in enumerate(layers):
                key = (date, entity, layer)
                if key in cells:
                    values[t, i, j] = cells[key]
                elif on_missing == "ffill" and t > 0:
                    values[t, i, j] = values[t - 1, i, j]
                    n_filled += 1
                else:
                    raise ValueError(f"ragged panel: missing {key}")
    if n_filled:
        logger.info("forward-filled %d missing panel cells", n_filled)
    return PanelSeries(dates=dates, entities=entities, layers=layers, values=values)


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
