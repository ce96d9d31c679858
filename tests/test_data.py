"""Dataset loaders, CSV round-trips, and the synthetic generator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tsadkit import (
    RunConfig,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_nab_csv,
    load_yahoo_csv,
    run_benchmark,
    synthetic_base,
    write_series_csv,
)
from tsadkit.data import _CHUNK_ROWS
from tsadkit.errors import (
    InvalidSpec,
    LabelFileMissingEntry,
    MissingColumn,
    ParseError,
)

from conftest import series


class TestYahooCsv:
    def test_three_row_transcription(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("timestamp,value,is_anomaly\n1,5.0,0\n2,9.0,1\n3,5.1,0\n")
        out = load_yahoo_csv(path)
        assert out.values.tolist() == [5.0, 9.0, 5.1]
        assert out.labels.tolist() == [0, 1, 0]
        assert out.series_id == "a"

    def test_anomaly_column_alias(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("timestamps,value,anomaly\n1,1.0,0\n2,2.0,1\n")
        out = load_yahoo_csv(path)
        assert out.labels.tolist() == [0, 1]

    def test_changepoint_flags_are_merged(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "timestamps,value,anomaly,changepoint\n1,1.0,0,0\n2,2.0,1,0\n3,3.0,0,1\n4,4.0,0,0\n"
        )
        out = load_yahoo_csv(path)
        assert out.labels.tolist() == [0, 1, 1, 0]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,value\n1,5.0\n")
        with pytest.raises(MissingColumn) as err:
            load_yahoo_csv(path)
        assert err.value.column == "is_anomaly"

    def test_missing_value_column(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("timestamp,is_anomaly\n1,0\n")
        with pytest.raises(MissingColumn) as err:
            load_yahoo_csv(path)
        assert err.value.column == "value"

    def test_parse_error_carries_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("timestamp,value,is_anomaly\n1,5.0,0\n2,oops,0\n")
        with pytest.raises(ParseError) as err:
            load_yahoo_csv(path)
        assert err.value.row == 3  # header is line 1

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("timestamp,value,is_anomaly\n1,5.0,2\n")
        with pytest.raises(ParseError):
            load_yahoo_csv(path)


class TestNabCsv:
    def test_interval_membership(self, tmp_path):
        data = tmp_path / "taxi.csv"
        data.write_text(
            "timestamp,value\n"
            "2014-07-01 00:00:00,10.0\n"
            "2014-07-01 00:30:00,11.0\n"
            "2014-07-01 01:00:00,12.0\n"
            "2014-07-01 01:30:00,13.0\n"
        )
        labels = tmp_path / "windows.json"
        labels.write_text(
            json.dumps({"taxi.csv": [["2014-07-01 00:30:00", "2014-07-01 01:00:00"]]})
        )
        out = load_nab_csv(data, labels)
        assert out.values.tolist() == [10.0, 11.0, 12.0, 13.0]
        assert out.labels.tolist() == [0, 1, 1, 0]

    def test_missing_entry(self, tmp_path):
        data = tmp_path / "taxi.csv"
        data.write_text("timestamp,value\n2014-07-01 00:00:00,10.0\n")
        labels = tmp_path / "windows.json"
        labels.write_text(json.dumps({"other.csv": []}))
        with pytest.raises(LabelFileMissingEntry):
            load_nab_csv(data, labels)

    def test_relative_key_match(self, tmp_path):
        data = tmp_path / "taxi.csv"
        data.write_text("timestamp,value\n2014-07-01 00:00:00,10.0\n")
        labels = tmp_path / "windows.json"
        labels.write_text(json.dumps({"realKnownCause/taxi.csv": []}))
        out = load_nab_csv(data, labels)
        assert out.labels.tolist() == [0]


# Header and a row template with the value left open, per loader.
CSV_LAYOUTS = {
    "yahoo": ("timestamp,value,is_anomaly", "1,{},0"),
    "nab": ("timestamp,value", "2014-07-01 00:00:00,{}"),
}


# Per loader: a row template with the value and the other parsed field
# (the label, or the timestamp) open, a good and a bad token for that field,
# and the bad token's message.  A Yahoo row parses its value first, a NAB
# row its timestamp.
OTHER_FIELD = {
    "yahoo": ("1,{value},{other}", "0", "2", "label must be 0 or 1, got '2'"),
    "nab": ("{other},{value}", "2014-07-01 00:00:00", "July", "cannot parse timestamp 'July'"),
}


def load_csv_text(loader: str, tmp_path, text: str):
    path = tmp_path / "s.csv"
    path.write_text(text)
    if loader == "yahoo":
        return load_yahoo_csv(path)
    windows = tmp_path / "windows.json"
    windows.write_text(json.dumps({"s.csv": []}))
    return load_nab_csv(path, windows)


@pytest.mark.parametrize("loader", CSV_LAYOUTS)
class TestMalformedCsv:
    """Both loaders read the header and rows the same way."""

    @pytest.mark.parametrize(
        "layout, row, message",
        [
            (lambda h, r: "", 1, "file is empty"),
            (lambda h, r: h + "\n", 2, "file contains a header but no data rows"),
            (lambda h, r: h + "\n\n\n", 2, "file contains a header but no data rows"),
            (lambda h, r: f"{h}\n{r.format(5.0)}\n\n1\n", 4, "expected {n} fields, got 1"),
            (lambda h, r: f"{h}\n{r.format(5.0)},7\n", 2, "expected {n} fields, got {m}"),
            (lambda h, r: f"{h}\n{r.format('oops')}\n", 2, "cannot parse 'oops' as a number"),
            (lambda h, r: f"{h}\n{r.format('inf')}\n", 2, "non-finite value 'inf'"),
        ],
        ids=["empty", "header-only", "blank-rows-only", "short-row", "long-row", "bad-value", "inf"],
    )
    def test_parse_errors_name_the_row(self, loader, tmp_path, layout, row, message):
        header, template = CSV_LAYOUTS[loader]
        n = header.count(",") + 1
        with pytest.raises(ParseError) as err:
            load_csv_text(loader, tmp_path, layout(header, template))
        assert err.value.row == row
        assert str(err.value) == f"{tmp_path / 's.csv'}:{row}: {message.format(n=n, m=n + 1)}"

    def test_a_missing_column_comes_before_any_row_error(self, loader, tmp_path):
        header, _ = CSV_LAYOUTS[loader]
        with pytest.raises(MissingColumn) as err:
            load_csv_text(loader, tmp_path, header.replace("value", "level") + "\n1\n")
        assert err.value.column == "value"

    def test_padded_header_and_blank_rows(self, loader, tmp_path):
        header, template = CSV_LAYOUTS[loader]
        padded = ",".join(f" {name} " for name in header.split(","))
        text = f"{padded}\n\n{template.format(5.0)}\n\n{template.format(6.0)}\n"
        assert load_csv_text(loader, tmp_path, text).values.tolist() == [5.0, 6.0]

    def assert_error(self, loader, tmp_path, rows: list[str], row: int, message: str):
        header, _ = CSV_LAYOUTS[loader]
        with pytest.raises(ParseError) as err:
            load_csv_text(loader, tmp_path, "\n".join([header, *rows]) + "\n")
        assert err.value.row == row
        assert str(err.value) == f"{tmp_path / 's.csv'}:{row}: {message}"

    def test_an_earlier_bad_field_comes_before_a_later_bad_value(self, loader, tmp_path):
        template, good, bad, message = OTHER_FIELD[loader]
        rows = [template.format(value=5.0, other=bad), template.format(value="oops", other=good)]
        self.assert_error(loader, tmp_path, rows, 2, message)

    def test_a_row_reports_its_first_bad_field_in_column_order(self, loader, tmp_path):
        template, good, bad, message = OTHER_FIELD[loader]
        rows = [template.format(value=5.0, other=good), template.format(value="oops", other=bad)]
        first = message if loader == "nab" else "cannot parse 'oops' as a number"
        self.assert_error(loader, tmp_path, rows, 3, first)

    def test_a_bad_value_comes_before_a_later_short_row(self, loader, tmp_path):
        _, template = CSV_LAYOUTS[loader]
        rows = [template.format(5.0), template.format("oops"), "1"]
        self.assert_error(loader, tmp_path, rows, 3, "cannot parse 'oops' as a number")

    def test_a_bad_value_past_the_first_chunk_reports_its_own_row(self, loader, tmp_path):
        _, template = CSV_LAYOUTS[loader]
        bad = _CHUNK_ROWS + 37  # data rows before the bad one
        rows = [template.format(float(i)) for i in range(bad)] + [template.format("oops")]
        rows += [template.format(1.0)] * _CHUNK_ROWS
        rows.insert(_CHUNK_ROWS + 5, "")  # a blank row shifts the later line numbers
        self.assert_error(loader, tmp_path, rows, bad + 3, "cannot parse 'oops' as a number")


class TestRoundTrip:
    def test_bit_equal_after_rewrite(self, tmp_path):
        rng = np.random.default_rng(11)
        original = series(rng.standard_normal(64) * 1e3, labels=(rng.random(64) < 0.1).astype(int))
        first = tmp_path / "one.csv"
        write_series_csv(original, first)
        loaded = load_yahoo_csv(first)
        second = tmp_path / "two.csv"
        write_series_csv(loaded, second)
        again = load_yahoo_csv(second)
        assert np.array_equal(loaded.values, original.values)
        assert np.array_equal(again.values, original.values)
        assert np.array_equal(again.labels, original.labels)


class TestManifest:
    def test_load_with_comments(self, tmp_path):
        csv_a = tmp_path / "s1.csv"
        csv_a.write_text("timestamp,value,is_anomaly\n1,1.0,0\n")
        csv_b = tmp_path / "s2.csv"
        csv_b.write_text("timestamp,value,is_anomaly\n1,2.0,0\n")
        manifest = tmp_path / "UD1.txt"
        manifest.write_text("# comment\ns1.csv\n\ns2.csv\n")
        out = load_manifest(manifest)
        assert out == [("s1", csv_a), ("s2", csv_b)]

    def test_duplicate_series_id(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "s.csv").write_text("timestamp,value,is_anomaly\n1,1.0,0\n")
        manifest = tmp_path / "UD1.txt"
        manifest.write_text("a/s.csv\nb/s.csv\n")
        with pytest.raises(InvalidSpec, match=r"\['s'\]"):
            run_benchmark(RunConfig(datasets=(str(manifest),), detectors=("ar",)))

    def test_unknown_dataset_id(self, tmp_path):
        manifest = tmp_path / "bogus.txt"
        manifest.write_text("")
        with pytest.raises(InvalidSpec, match="unknown dataset_id 'BOGUS'"):
            run_benchmark(RunConfig(datasets=(str(manifest),), detectors=("ar",)))


class TestSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(length=200, base="ar_process", anomaly_rate=0.02, ar_coeffs=(0.5,), seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_point_count(self):
        spec = SynthSpec(length=1000, base="ar_process", anomaly_rate=0.01, seed=3)
        out = generate_synthetic(spec)
        assert int(out.labels.sum()) == 10

    def test_point_displacement(self):
        spec = SynthSpec(length=1000, base="ar_process", anomaly_rate=0.01, seed=5)
        out = generate_synthetic(spec)
        base = synthetic_base(spec)
        sd = base.std()
        moved = np.flatnonzero(out.labels)
        assert np.all(np.abs(out.values[moved] - base[moved]) >= 6 * sd)

    def test_unlabeled_values_untouched(self):
        for kind in ("point", "collective"):
            spec = SynthSpec(length=600, base="sine_seasonal", anomaly_rate=0.02, anomaly_kind=kind, seed=9)
            out = generate_synthetic(spec)
            base = synthetic_base(spec)
            clean = out.labels == 0
            assert np.array_equal(out.values[clean], base[clean])

    def test_collective_run_is_contiguous(self):
        spec = SynthSpec(length=800, base="ar_process", anomaly_rate=0.02, anomaly_kind="collective", seed=2)
        out = generate_synthetic(spec)
        marked = np.flatnonzero(out.labels)
        assert marked.size >= 2
        assert np.all(np.diff(marked) == 1)

    def test_changepoint_shift_and_trailing_labels(self):
        spec = SynthSpec(length=1000, base="ar_process", anomaly_rate=0.02, anomaly_kind="changepoint", seed=4)
        out = generate_synthetic(spec)
        base = synthetic_base(spec)
        sd = base.std()
        marked = np.flatnonzero(out.labels)
        change = marked[0]
        assert np.all(np.diff(marked) == 1)
        shift = np.abs(out.values[change:] - base[change:])
        assert np.all(shift >= 3 * sd)
        assert np.array_equal(out.values[:change], base[:change])

    def test_sine_sets_period_hint(self):
        spec = SynthSpec(length=300, base="sine_seasonal", anomaly_rate=0.01, seed=1, season_period=25)
        assert generate_synthetic(spec).period_hint == 25

    def test_sine_default_period_is_fifty(self):
        implicit = generate_synthetic(SynthSpec(length=300, base="sine_seasonal", seed=2))
        explicit = generate_synthetic(
            SynthSpec(length=300, base="sine_seasonal", seed=2, season_period=50)
        )
        assert implicit.period_hint == 50
        assert np.array_equal(implicit.values, explicit.values)
        assert np.array_equal(implicit.labels, explicit.labels)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(length=50, base="ar_process", anomaly_rate=0.01, seed=1)  # rate*length < 1
        with pytest.raises(InvalidSpec):
            SynthSpec(length=1, base="ar_process", anomaly_rate=0.9, seed=1)
        with pytest.raises(InvalidSpec):
            SynthSpec(length=100, base="ar_process", anomaly_rate=0.1, seed=1, ar_coeffs=(1.0,))
        with pytest.raises(InvalidSpec):
            SynthSpec(length=100, base="nope", anomaly_rate=0.1, seed=1)

    def test_stationary_coeffs_accepted(self):
        spec = SynthSpec(length=120, base="ar_process", anomaly_rate=0.1, seed=1, ar_coeffs=(0.5, -0.3))
        assert generate_synthetic(spec).values.size == 120

