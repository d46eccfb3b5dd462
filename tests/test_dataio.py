import json

import numpy as np
import pytest

from sulfexp.cli import main
from sulfexp.curves import ExpansionSeries
from sulfexp.dataio import (
    emit_plot_data,
    generate_synthetic,
    load_bundle,
    load_dataset,
    load_manifest,
    load_mixtures,
    load_series,
    save_bundle,
    write_mixtures,
    write_series,
)
from sulfexp.errors import (
    DuplicateId,
    DuplicateTimestamp,
    NonFiniteValue,
    ParseError,
    RangeViolation,
    SchemaVersionMismatch,
    ValidationError,
)
from sulfexp.mixtures import GroupLabel, Mixture
from sulfexp.model import fit_pipeline, default_bundle, predict_curve, predict_expansion


class TestLoadMixtures:
    def test_minimal_row_with_only_wc(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text("id,wc,c3a,c3s,c2s,c4af,cement_content,air\n1000,0.490,,,,,,\n")
        mixtures = load_mixtures(p)
        assert len(mixtures) == 1
        assert mixtures[0].wc == 0.490
        assert mixtures[0].c3a is None

    def test_range_violation_carries_location(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text("id,wc,c3a,c3s,c2s,c4af,cement_content,air\nbad,1.5,,,,,,\n")
        with pytest.raises(RangeViolation) as excinfo:
            load_mixtures(p)
        assert excinfo.value.line == 2
        assert "wc" in str(excinfo.value)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text(
            "id,wc,c3a,c3s,c2s,c4af,cement_content,air\n1000,0.4,,,,,,\n1000,0.5,,,,,,\n"
        )
        with pytest.raises(DuplicateId):
            load_mixtures(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text("id,wc\n1000,0.4\n")
        with pytest.raises(ParseError) as excinfo:
            load_mixtures(p)
        assert excinfo.value.line == 1

    def test_not_a_number(self, tmp_path):
        p = tmp_path / "mix.csv"
        p.write_text("id,wc,c3a,c3s,c2s,c4af,cement_content,air\nx,abc,,,,,,\n")
        with pytest.raises(ParseError) as excinfo:
            load_mixtures(p)
        assert excinfo.value.field == "wc"

    def test_round_trip(self, tmp_path):
        mixtures = [
            Mixture(id="a", wc=0.456789012345, c3a=8.125),
            Mixture(id="b", c3s=62.5),
        ]
        p = tmp_path / "mix.csv"
        write_mixtures(mixtures, p)
        assert load_mixtures(p) == mixtures


class TestLoadSeries:
    def test_unsorted_rows_grouped_and_sorted(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text(
            "mixture_id,t_years,expansion_percent\n"
            "m1,10,0.2\nm1,0,0.0\nm1,5,0.1\n"
        )
        series = load_series(p)
        assert len(series) == 1
        assert series[0].times.tolist() == [0.0, 5.0, 10.0]

    def test_duplicate_timestamp(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\nm1,5,0.1\nm1,5,0.2\n")
        with pytest.raises(DuplicateTimestamp):
            load_series(p)

    def test_nan_value_rejected_with_location(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\nm1,5,NaN\n")
        with pytest.raises(NonFiniteValue) as excinfo:
            load_series(p)
        assert "2" in str(excinfo.value)

    def test_first_negative_time_in_file_order_carries_location(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\n"
                     "a,1,0.1\nb,2,0.1\nb,-3,0.1\na,-1,0.1\n")
        with pytest.raises(RangeViolation) as excinfo:
            load_series(p)
        assert (excinfo.value.path, excinfo.value.line, excinfo.value.field) == (
            str(p), 4, "t_years")
        assert str(excinfo.value).startswith("series 'b': t_years=-3.0 is negative")

    def test_round_trip(self, tmp_path):
        series = [ExpansionSeries(mixture_id="m1", samples=((0.0, 0.01), (2.5, 0.0725)))]
        p = tmp_path / "series.csv"
        write_series(series, p)
        assert load_series(p) == series


class TestManifest:
    def write_dataset(self, tmp_path, unit="percent"):
        ds = generate_synthetic((3, 3, 3), noise=0.0, seed=1)
        write_mixtures([m for m, _ in ds.pairs], tmp_path / "mixtures.csv")
        series = [s for _, s in ds.pairs]
        if unit == "fraction":
            series = [
                ExpansionSeries(mixture_id=s.mixture_id,
                                samples=tuple((t, e / 100.0) for t, e in s.samples))
                for s in series
            ]
        write_series(series, tmp_path / "series.csv")
        manifest = {"mixtures_path": "mixtures.csv", "series_path": "series.csv",
                    "expansion_unit": unit, "schema_version": "1"}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return ds

    def test_load_dataset(self, tmp_path):
        ds = self.write_dataset(tmp_path)
        manifest = load_manifest(tmp_path / "manifest.json")
        pairs = load_dataset(manifest)
        assert len(pairs) == len(ds.pairs)
        assert pairs[0][0] == ds.pairs[0][0]

    def test_fraction_unit_converted(self, tmp_path):
        ds = self.write_dataset(tmp_path, unit="fraction")
        pairs = load_dataset(load_manifest(tmp_path / "manifest.json"))
        original = ds.pairs[0][1].values
        assert np.allclose(pairs[0][1].values, original, rtol=1e-12)

    def test_missing_key(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"mixtures_path": "x.csv"}')
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "manifest.json")

    def test_schema_mismatch(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"mixtures_path": "a", "series_path": "b", "schema_version": "2"}'
        )
        with pytest.raises(SchemaVersionMismatch):
            load_manifest(tmp_path / "manifest.json")

    def test_series_without_mixture(self, tmp_path):
        self.write_dataset(tmp_path)
        extra = "\nghost,1,0.1"
        p = tmp_path / "series.csv"
        p.write_text(p.read_text() + extra)
        with pytest.raises(ValidationError):
            load_dataset(load_manifest(tmp_path / "manifest.json"))


class TestBundlePersistence:
    def test_default_bundle_bit_exact_round_trip(self, tmp_path):
        bundle = default_bundle()
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded == bundle
        assert loaded.models[GroupLabel.LL].coefficients[0] == 0.0157
        assert loaded.boundary_second.weights[1] == 387.3

    def test_fitted_bundle_round_trip(self, tmp_path):
        ds = generate_synthetic((4, 5, 4), noise=0.01, seed=8)
        bundle = fit_pipeline(ds.pairs)
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded == bundle
        for g in bundle.models:
            assert np.array_equal(loaded.models[g].coefficients, bundle.models[g].coefficients)

    def test_unknown_field_warns_but_loads(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        doc = json.loads(path.read_text())
        doc["future_field"] = {"anything": 1}
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            loaded = load_bundle(path)
        assert loaded == default_bundle()

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = "9"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionMismatch):
            load_bundle(path)

    def test_minor_schema_version_loads_and_saves_as_the_writer_schema(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = "1.3"
        path.write_text(json.dumps(doc))
        loaded = load_bundle(path)
        assert loaded == default_bundle()
        again = tmp_path / "again.json"
        save_bundle(loaded, again)
        assert json.loads(again.read_text())["schema_version"] == "1"

    def test_derived_values_may_be_omitted(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        doc = json.loads(path.read_text())
        del doc["partial"]
        for model in doc["models"].values():
            del model["form"]
        path.write_text(json.dumps(doc))
        assert load_bundle(path) == default_bundle()

    def test_decimal_text_parses_exactly(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        assert '"0.0157"' not in path.read_text()  # stored as a number
        assert json.loads(path.read_text())["models"]["LL"]["coefficients"][0] == float("0.0157")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_bundle(path)

    def test_partial_bundle_round_trip(self, tmp_path):
        from sulfexp.model import PipelineConfig

        ds = generate_synthetic((0, 0, 6), noise=0.0, seed=3)
        bundle = fit_pipeline(ds.pairs, PipelineConfig(k=1))
        assert bundle.partial and bundle.boundary_first is None
        path = tmp_path / "partial.json"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert loaded == bundle
        assert loaded.boundary_first is None and loaded.boundary_second is None


#: (key path, replacement, field named by the error): values numpy would read as numbers
NOT_NUMBERS = [
    (("boundary_second", "bias"), "-233.6", "boundary_second.bias"),
    (("boundary_first_simplified", "bias"), True, "boundary_first_simplified.bias"),
    (("boundary_first", "weights"), [True, 0.5], "boundary_first.weights"),
    (("boundary_second", "weights"), ["1.0", 387.3], "boundary_second.weights"),
    (("models", "LL", "coefficients"), ["0.0157", "0.0305"], "models.LL.coefficients"),
    (("models", "ML", "coefficients"), [[0.0293], [False], [0.0216]], "models.ML.coefficients"),
    (("models", "LL", "fit", "r_squared"), "x", "models.LL.fit.r_squared"),
    (("models", "HN", "fit", "residual_std"), False, "models.HN.fit.residual_std"),
    (("models", "ML", "fit", "t_statistics"), ["298.3", 104.4, 68.6],
     "models.ML.fit.t_statistics"),
    (("models", "LL", "fit", "n_observations"), 2.5, "models.LL.fit.n_observations"),
    (("models", "LL", "fit", "n_observations"), "148", "models.LL.fit.n_observations"),
    (("models", "HN", "fit", "n_observations"), True, "models.HN.fit.n_observations"),
]


class TestBundleNumbers:
    @pytest.fixture(scope="class")
    def fitted_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fitted") / "bundle.json"
        save_bundle(fit_pipeline(generate_synthetic((4, 5, 4), noise=0.01, seed=8).pairs), path)
        return json.loads(path.read_text())

    @staticmethod
    def replaced(doc, keys, value):
        doc = json.loads(json.dumps(doc))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return doc

    @pytest.mark.parametrize("keys,value,field", NOT_NUMBERS)
    def test_value_that_is_not_a_number_is_rejected_by_field(
            self, tmp_path, fitted_doc, keys, value, field):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(self.replaced(fitted_doc, keys, value)))
        with pytest.raises(ParseError) as excinfo:
            load_bundle(path)
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(
            ("expected a number, got ", "expected an integer, got "))

    @pytest.mark.parametrize("command", ["classify", "predict"])
    @pytest.mark.parametrize("keys,value,field", NOT_NUMBERS[:5], ids=[
        "bias-text", "bias-bool", "weights-bool", "weights-text", "coefficients-text"])
    def test_cli_exits_2(self, tmp_path, capsys, keys, value, field, command):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        path.write_text(json.dumps(self.replaced(json.loads(path.read_text()), keys, value)))
        mixtures = tmp_path / "mix.csv"
        mixtures.write_text("id,wc,c3a,c3s,c2s,c4af,cement_content,air\nm,0.53,6.0,40,,,,\n")
        assert main([command, str(mixtures), "--bundle", str(path)]) == 2
        assert f"field={field}" in capsys.readouterr().err

    def test_integers_are_numbers(self, tmp_path, fitted_doc):
        doc = self.replaced(fitted_doc, ("boundary_second", "bias"), -233)
        doc = self.replaced(doc, ("models", "LL", "coefficients"), [0, 1])
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        loaded = load_bundle(path)
        assert loaded.boundary_second.bias == -233.0
        assert loaded.models[GroupLabel.LL].coefficients.tolist() == [0.0, 1.0]


class TestGenerateSynthetic:
    def test_noiseless_matches_generating_equations(self):
        ds = generate_synthetic((2, 2, 2), noise=0.0, seed=4)
        bundle = default_bundle()
        for mix, series in ds.pairs:
            group = ds.labels[mix.id]
            for t, e in series.samples:
                assert e == predict_expansion(mix, group, bundle, t)

    def test_labels_respect_boundaries(self):
        ds = generate_synthetic((10, 10, 10), noise=0.0, seed=6)
        for mix, _ in ds.pairs:
            label = ds.labels[mix.id]
            assert (mix.c3a > 8.0) == (label is GroupLabel.HN)
            if label is not GroupLabel.HN:
                sign = mix.c3s + 387.3 * mix.wc - 233.6
                assert (sign >= 0) == (label is GroupLabel.ML)

    def test_single_group_counts(self):
        ds = generate_synthetic((0, 0, 5), noise=0.0, seed=2)
        assert len(ds.pairs) == 5
        assert set(ds.labels.values()) == {GroupLabel.LL}

    def test_determinism(self):
        a = generate_synthetic((3, 3, 3), noise=0.1, seed=9)
        b = generate_synthetic((3, 3, 3), noise=0.1, seed=9)
        assert a.pairs == b.pairs

    def test_truncation_keeps_minimum_samples(self):
        ds = generate_synthetic((5, 0, 0), noise=0.0, seed=3)
        for _, series in ds.pairs:
            assert len(series) >= 3

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            generate_synthetic((-1, 0, 0))
        with pytest.raises(ValidationError):
            generate_synthetic((1, 1, 1), noise=-0.5)


class TestEmitPlotData:
    def test_labeled_pair(self, tmp_path):
        s1 = ExpansionSeries(mixture_id="m", samples=((0.0, 0.0), (1.0, 0.1)))
        s2 = ExpansionSeries(mixture_id="m", samples=((0.0, 0.01), (1.0, 0.09)))
        out = tmp_path / "plot.csv"
        emit_plot_data([s1, s2], out, labels=["m/original", "m/smoothed"])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "series_label,t,value"
        assert len(lines) == 5
        assert lines[1].startswith("m/original,")
        assert lines[3].startswith("m/smoothed,")

    def test_default_labels(self, tmp_path):
        s = ExpansionSeries(mixture_id="mix9", samples=((0.0, 0.0), (1.0, 0.1)))
        out = tmp_path / "plot.csv"
        emit_plot_data([s], out)
        assert "mix9," in out.read_text()

    def test_empty_list_is_an_error(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_plot_data([], tmp_path / "plot.csv")
        assert not (tmp_path / "plot.csv").exists()

    def test_curves_on_a_shared_grid(self, tmp_path):
        # the grid is formatted once per array; the bytes are those of a repr per sample
        series_list = [predict_curve(Mixture(id=f"c{i}", wc=0.4 + i / 50, c3a=4.0 + i,
                                             c3s=40.0, cement_content=0.6),
                                     horizon=12.5, step=0.3) for i in range(6)]
        series_list.append(ExpansionSeries(mixture_id="own", samples=((0.0, 0.1), (0.3, 1 / 3))))
        assert series_list[0].times is series_list[5].times
        out = tmp_path / "plot.csv"
        emit_plot_data(series_list, out)
        expected = ["series_label,t,value"] + [
            f"{s.mixture_id},{t!r},{e!r}" for s in series_list for t, e in s.samples]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_values_round_trip_full_precision(self, tmp_path):
        value = 1.0 / 3.0
        s = ExpansionSeries(mixture_id="m", samples=((0.0, value),))
        out = tmp_path / "plot.csv"
        emit_plot_data([s], out)
        cell = out.read_text().strip().splitlines()[1].split(",")[2]
        assert float(cell) == value
