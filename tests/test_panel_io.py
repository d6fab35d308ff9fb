"""Panel CSV ingestion, validation, and canonical round-trips."""

import csv
import io
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multitar.panel import CSV_HEADER, PanelSeries, export_panel, ingest_csv

# The label alphabet of the network-CSV round trip: any text UTF-8 can
# encode, without NUL, which the csv reader of Python 3.10 rejects.
_LABEL_CHARS = st.characters(codec="utf-8", exclude_characters="\x00")


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
