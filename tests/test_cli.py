import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sulfexp import svm
from sulfexp.cli import main
from sulfexp.curves import cluster_features, smooth
from sulfexp.dataio import (
    generate_synthetic,
    load_bundle,
    save_bundle,
    write_mixtures,
    write_series,
)
from sulfexp.errors import ValidationError
from sulfexp.mixtures import Mixture
from sulfexp.model import MAX_CURVE_POINTS, default_bundle

MIX_HEADER = "id,wc,c3a,c3s,c2s,c4af,cement_content,air\n"


@pytest.fixture
def dataset_dir(tmp_path):
    ds = generate_synthetic((5, 6, 5), noise=0.01, seed=17)
    write_mixtures([m for m, _ in ds.pairs], tmp_path / "mixtures.csv")
    write_series([s for _, s in ds.pairs], tmp_path / "series.csv")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "mixtures_path": "mixtures.csv",
        "series_path": "series.csv",
        "expansion_unit": "percent",
        "schema_version": "1",
    }))
    return tmp_path, ds


class TestClassify:
    def test_default_bundle_classification(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "hot,0.5,9.0,40,,,,\n")
        assert main(["classify", str(p)]) == 0
        out = capsys.readouterr().out
        assert "HN" in out

    def test_json_format(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "slow,0.45,5.0,55,,,,\n")
        assert main(["--format", "json", "classify", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classifications"][0]["group"] == "LL"

    def test_json_without_raw_first_boundary_is_strict(self, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        save_bundle(dataclasses.replace(default_bundle(), boundary_first=None), bundle)
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "slow,0.45,5.0,55,,,,\n")
        assert main(["--format", "json", "classify", str(p), "--bundle", str(bundle)]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        row = doc["classifications"][0]
        assert row["first_boundary_value"] is None
        assert row["second_boundary_value"] == default_bundle().boundary_second.decision_value(
            [55.0, 0.45])
        assert main(["classify", str(p), "--bundle", str(bundle)]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[2] == "nan"

    def test_missing_field_exits_2(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "partial,0.5,,,,,,\n")
        assert main(["classify", str(p)]) == 2
        assert "c3a" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER)
        assert main(["classify", str(p)]) == 2
        assert "no rows" in capsys.readouterr().err

    def test_non_utf8_table_exits_2(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_bytes(MIX_HEADER.encode() + b"caf\xe9,0.45,5.0,55,,,,\n")
        assert main(["classify", str(p)]) == 2
        assert_one_error_line(capsys, "not UTF-8", str(p))


class TestPredict:
    def test_summary_and_plot_data(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "1000,0.49,5.0,40,,,,\nhn1,0.5,9.0,40,,,0.589,\n")
        out_file = tmp_path / "curves.csv"
        assert main(["predict", str(p), "--horizon", "40", "--step", "10",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        final = 0.0157 * 0.49 * 40 + 0.0305
        assert f"{final:.6g}" in out
        assert "3.236" in out
        assert out_file.exists()
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "series_label,t,value"
        assert len(lines) == 1 + 5 + 5

    def test_zero_step_exits_2(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "1000,0.49,5.0,40,,,,\n")
        assert main(["predict", str(p), "--step", "0"]) == 2

    @pytest.mark.parametrize("grid", [
        ["--horizon", "inf"],
        ["--horizon", "nan"],
        ["--step", "nan"],
        ["--step=-inf"],
    ])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, grid):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "1000,0.49,5.0,40,,,,\n")
        assert main(["predict", str(p), *grid]) == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        ["--horizon", "1e308", "--step", "1e300"],
        ["--horizon", "1e308", "--step", "1e-300"],
    ])
    def test_oversized_grid_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch, grid):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "1000,0.49,5.0,40,,,,\n")

        def no_grid(*args, **kwargs):
            raise AssertionError("a time grid was allocated")

        monkeypatch.setattr(np, "arange", no_grid)
        assert main(["predict", str(p), *grid]) == 2
        assert f"more than {MAX_CURVE_POINTS} grid points" in capsys.readouterr().err

    def test_empty_table_with_bad_grid_exits_2(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER)
        assert main(["predict", str(p), "--horizon", "nan"]) == 2

    def test_overflowing_prediction_exits_3(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "hot,0.5,10,40,,,1.0,\n")
        assert main(["predict", str(p), "--horizon", "200"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "overflows" in err

    def test_never_failing_mixture_reported(self, tmp_path, capsys):
        # low cement content: HN model never reaches the threshold
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "cold,0.5,9.0,40,,,0.45,\n")
        assert main(["predict", str(p)]) == 0
        assert "NonIncreasing" in capsys.readouterr().out


class TestBundleRoles:
    @pytest.fixture
    def bad_role_bundle(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        doc = json.loads(path.read_text())
        doc["models"]["ML"]["variable_roles"][0] = "FOO*T"
        path.write_text(json.dumps(doc))
        return path

    def test_load_rejects_unknown_role(self, bad_role_bundle):
        with pytest.raises(ValidationError, match="FOO"):
            load_bundle(bad_role_bundle)

    @pytest.mark.parametrize("command", ["classify", "predict"])
    def test_unknown_role_exits_2(self, tmp_path, capsys, bad_role_bundle, command):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "m,0.53,6.0,40,,,,\n")
        assert main([command, str(p), "--bundle", str(bad_role_bundle)]) == 2
        assert "unknown regressor role 'FOO*T'" in capsys.readouterr().err


class TestMalformedBundle:
    @pytest.fixture
    def bundle_doc(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(default_bundle(), path)
        return path, json.loads(path.read_text())

    def _exit_code(self, tmp_path, path, doc, command="classify"):
        path.write_text(json.dumps(doc))
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "m,0.53,6.0,40,,,,\n")
        return main([command, str(p), "--bundle", str(path)])

    def test_unknown_group_key_exits_2(self, tmp_path, capsys, bundle_doc):
        path, doc = bundle_doc
        doc["models"]["XX"] = doc["models"].pop("ML")
        assert self._exit_code(tmp_path, path, doc) == 2
        assert "unknown groups ['XX']" in capsys.readouterr().err

    def test_models_not_an_object_exits_2(self, tmp_path, capsys, bundle_doc):
        path, doc = bundle_doc
        doc["models"] = []
        assert self._exit_code(tmp_path, path, doc) == 2
        assert "'models' must be an object" in capsys.readouterr().err

    def test_unknown_boundary_feature_exits_2(self, tmp_path, capsys, bundle_doc):
        path, doc = bundle_doc
        doc["boundary_second"]["feature_names"][0] = "zzz"
        assert self._exit_code(tmp_path, path, doc) == 2
        assert "unknown mixture field 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "predict"])
    def test_boundary_with_three_names_exits_2(self, tmp_path, capsys, bundle_doc, command):
        path, doc = bundle_doc
        doc["boundary_second"]["feature_names"] = ["c3s", "wc", "air"]
        assert self._exit_code(tmp_path, path, doc, command) == 2
        assert_one_error_line(capsys, "exactly two feature names")

    @pytest.mark.parametrize("value", [True, "no", 0])
    def test_stored_partial_that_differs_exits_2(self, tmp_path, capsys, bundle_doc, value):
        path, doc = bundle_doc
        doc["partial"] = value
        assert self._exit_code(tmp_path, path, doc) == 2
        assert_one_error_line(capsys, "differs from the derived false", "field=partial")

    @pytest.mark.parametrize("group,form,derived", [("HN", "linear", "log-linear"),
                                                    ("ML", "cubic", "linear")])
    def test_stored_form_that_differs_exits_2(self, tmp_path, capsys, bundle_doc, group, form,
                                              derived):
        path, doc = bundle_doc
        doc["models"][group]["form"] = form
        assert self._exit_code(tmp_path, path, doc, "predict") == 2
        assert_one_error_line(capsys, f'stored value "{form}" differs',
                              f'from the derived "{derived}"', f"field=models.{group}.form")

    @pytest.mark.parametrize("weights", [[1.0, 0.5], [1.0, -20.0]])
    def test_tilted_simplified_boundary_exits_2(self, tmp_path, capsys, bundle_doc, weights):
        path, doc = bundle_doc
        doc["boundary_first_simplified"]["weights"] = weights
        assert self._exit_code(tmp_path, path, doc) == 2
        assert "simplified first boundary must be axis-parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["abc", -1.0])
    def test_bad_failure_threshold_exits_2(self, tmp_path, capsys, bundle_doc, threshold):
        path, doc = bundle_doc
        doc["failure_threshold"] = threshold
        assert self._exit_code(tmp_path, path, doc, "predict") == 2
        assert "failure_threshold must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -1, True])
    def test_non_positive_box_constraint_exits_2(self, tmp_path, capsys, bundle_doc, value):
        path, doc = bundle_doc
        doc["boundary_second"]["box_constraint"] = value
        assert self._exit_code(tmp_path, path, doc) == 2
        assert_one_error_line(capsys,
                              f"box constraint must be a finite positive number, got {value!r}")

    @pytest.mark.parametrize("command", ["classify", "predict"])
    def test_raw_first_boundary_missing_exits_2(self, tmp_path, capsys, bundle_doc, command):
        path, doc = bundle_doc
        doc["boundary_first"] = None
        assert self._exit_code(tmp_path, path, doc, command) == 0
        capsys.readouterr()
        p = tmp_path / "mix.csv"
        assert main([command, str(p), "--bundle", str(path), "--raw-first-boundary"]) == 2
        assert_one_error_line(capsys, "no classification boundaries")

    def test_model_group_differing_from_its_key_exits_2(self, tmp_path, capsys, bundle_doc):
        path, doc = bundle_doc
        doc["models"]["ML"]["group"] = "LL"
        assert self._exit_code(tmp_path, path, doc, "predict") == 2
        assert "the model stored under ML is for group LL" in capsys.readouterr().err

    @pytest.mark.parametrize("literal,fragment", [
        ("NaN", "non-finite number NaN"),
        ("Infinity", "non-finite number Infinity"),
        ("-Infinity", "non-finite number -Infinity"),
        ("1e999", "number 1e999 overflows a float"),
        pytest.param("1" + "0" * 400, "int too large to convert to float", id="1e400-int"),
    ])
    @pytest.mark.parametrize("place", ["second_bias", "ml_coefficient", "box_constraint"])
    @pytest.mark.parametrize("command", ["classify", "predict"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, bundle_doc, command, place,
                                       literal, fragment):
        path, doc = bundle_doc
        if place == "second_bias":
            doc["boundary_second"]["bias"] = "@"
        elif place == "box_constraint":
            doc["boundary_second"]["box_constraint"] = "@"
        else:
            doc["models"]["ML"]["coefficients"][0] = "@"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "m,0.53,6.0,40,,,0.6,\n")
        assert main([command, str(p), "--bundle", str(path)]) == 2
        assert_one_error_line(capsys, fragment)


class TestFit:
    def test_fit_writes_bundle_and_report(self, dataset_dir, capsys):
        tmp_path, ds = dataset_dir
        out = tmp_path / "bundle.json"
        assert main(["fit", str(tmp_path / "manifest.json"), "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "R^2" in report
        assert "first boundary" in report
        assert "WC*T" in report
        bundle = load_bundle(out)
        assert bundle.provenance.startswith("fitted")

    def test_json_format_prints_only_the_json_document(self, dataset_dir, capsys):
        tmp_path, _ = dataset_dir
        out = tmp_path / "bundle.json"
        assert main(["--format", "json", "fit", str(tmp_path / "manifest.json"),
                     "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"] == load_bundle(out).provenance
        assert sorted(doc["groups"]) == ["HN", "LL", "ML"]

    def test_same_seed_byte_identical(self, dataset_dir, capsys):
        tmp_path, _ = dataset_dir
        out1 = tmp_path / "b1.json"
        out2 = tmp_path / "b2.json"
        assert main(["fit", str(tmp_path / "manifest.json"), "--out", str(out1),
                     "--seed", "7"]) == 0
        assert main(["fit", str(tmp_path / "manifest.json"), "--out", str(out2),
                     "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_too_few_mixtures_stage_tagged(self, tmp_path, capsys):
        write_mixtures([Mixture(id="a", wc=0.5), Mixture(id="b", wc=0.4)],
                       tmp_path / "mixtures.csv")
        ds = generate_synthetic((0, 0, 2), noise=0.0, seed=1)
        series = [s for _, s in ds.pairs]
        for s, new_id in zip(series, ("a", "b")):
            object.__setattr__(s, "mixture_id", new_id)
        write_series(series, tmp_path / "series.csv")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "mixtures_path": "mixtures.csv", "series_path": "series.csv"}))
        code = main(["fit", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "clustering:" in capsys.readouterr().err

    def test_uncertified_svm_exits_3(self, dataset_dir, monkeypatch, capsys):
        # stop the descent at its start point, uncertified
        monkeypatch.setattr(svm, "_polish", lambda X, y, C, z: (z, False))
        tmp_path, _ = dataset_dir
        assert main(["fit", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "b.json")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "numerical failure: boundaries: svm training certified no optimum (objective=")
        assert not (tmp_path / "b.json").exists()

    def test_one_sided_boundary_exits_3_naming_the_plane(self, tmp_path, capsys):
        write_dataset(tmp_path, generate_synthetic((12, 16, 12), noise=0.1, seed=3), {})
        assert main(["fit", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "b.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: boundaries: the optimal boundary in the (c3s, wc) plane puts "
            "all 28 points on its +1 side (26 labelled +1, 2 labelled -1)"]
        assert not (tmp_path / "b.json").exists()

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{}")
        assert main(["fit", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "b.json")]) == 2

    @pytest.mark.parametrize("content,fragment", [
        (b"5", "must be a JSON object"),
        (b"[]", "must be a JSON object"),
        (b'{"mixtures_path": "m\xff.csv", "series_path": "s.csv"}', "not UTF-8"),
        (b'{"mixtures_path": NaN, "series_path": "s.csv"}', "mixtures_path must be a string"),
        (b'{"mixtures_path": "m.csv", "series_path": 5}', "series_path must be a string"),
    ], ids=["number", "array", "not-utf8", "nan-path", "int-path"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, content, fragment):
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        assert main(["fit", str(path), "--out", str(tmp_path / "b.json")]) == 2
        assert_one_error_line(capsys, fragment, str(path))

    def test_noiseless_report_shows_perfect_fit(self, tmp_path, capsys):
        ds = generate_synthetic((4, 4, 4), noise=0.0, seed=29)
        write_mixtures([m for m, _ in ds.pairs], tmp_path / "mixtures.csv")
        write_series([s for _, s in ds.pairs], tmp_path / "series.csv")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "mixtures_path": "mixtures.csv", "series_path": "series.csv"}))
        assert main(["fit", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "b.json")]) == 0
        report = capsys.readouterr().out
        assert report.count("R^2 = 1.0000") == 3


class TestSmooth:
    def test_constant_series_unchanged(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\n"
                     + "".join(f"m,{t},0.25\n" for t in range(0, 25, 5)))
        out = tmp_path / "smoothed.csv"
        assert main(["smooth", str(p), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        smoothed_vals = {float(r[2]) for r in rows if r[0] == "m/smoothed"}
        assert smoothed_vals == {0.25}

    def test_alpha_one_is_identity(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\nm,0,0.0\nm,5,0.3\nm,10,0.1\n")
        out = tmp_path / "smoothed.csv"
        assert main(["smooth", str(p), "--alpha", "1.0", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        originals = [r[2] for r in rows if r[0] == "m/original"]
        smoothed = [r[2] for r in rows if r[0] == "m/smoothed"]
        assert originals == smoothed

    def test_invalid_alpha_exits_2(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\nm,0,0.0\nm,5,0.3\nm,10,0.1\n")
        assert main(["smooth", str(p), "--alpha", "2.0",
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestCluster:
    def test_three_archetypes_recovered(self, dataset_dir, capsys):
        tmp_path, ds = dataset_dir
        assert main(["--format", "json", "cluster", str(tmp_path / "series.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_cluster = {}
        for row in doc["clusters"]:
            by_cluster.setdefault(row["cluster"], set()).add(ds.labels[row["id"]])
        # each cluster holds exactly one archetype
        assert all(len(groups) == 1 for groups in by_cluster.values())
        assert len(by_cluster) == 3

    def test_flat_series_exits_3(self, tmp_path, capsys):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\n"
                     + "".join(f"m,{t},0.0\n" for t in range(0, 25, 5)))
        assert main(["cluster", str(p)]) == 3

    @pytest.mark.parametrize("flags,message", [
        (["--threshold", "-1"], "failure_threshold must be a finite positive number, got -1.0"),
        (["--threshold", "inf"], "failure_threshold must be a finite positive number, got inf"),
        (["--cluster-raw", "--alpha", "5"], "alpha must be in [0, 1], got 5.0"),
    ])
    @pytest.mark.parametrize("command", ["cluster", "fit"])
    def test_bad_setting_exits_2_before_reading(self, tmp_path, capsys, command, flags, message):
        # the input does not exist, so reading it first would report that instead
        argv = [command, str(tmp_path / "absent"), *flags]
        if command == "fit":
            argv += ["--out", str(tmp_path / "b.json")]
        assert main(argv) == 2
        assert_one_error_line(capsys, message)

    @pytest.mark.parametrize("flags", [[], ["--cluster-raw"]])
    def test_json_carries_full_floats(self, dataset_dir, capsys, flags):
        tmp_path, ds = dataset_dir
        assert main(["--format", "json", "cluster", str(tmp_path / "series.csv"), *flags]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        series = {s.mixture_id: s for _, s in ds.pairs}
        for row in doc["clusters"]:
            record = series[row["id"]]
            if not flags:
                record = smooth(record)
            assert [row["t_fail"], row["slope"]] == cluster_features(record).tolist()

    @pytest.mark.parametrize("rows,flags,code,message", [
        ("".join(f"m,{t},0.0\n" for t in range(0, 25, 5)), [], 3,
         "features: series 'm' never reaches 0.5"),
        ("".join(f"{m},{t},{0.1 * t * (i + 1)}\n" for i, m in enumerate("abc")
                 for t in range(0, 25, 5)), ["--k", "4"], 2,
         "clustering: 3 points cannot fill 4 clusters"),
    ], ids=["features", "clustering"])
    def test_errors_carry_the_fit_stage_prefixes(self, tmp_path, capsys, rows, flags, code,
                                                 message):
        p = tmp_path / "series.csv"
        p.write_text("mixture_id,t_years,expansion_percent\n" + rows)
        assert main(["cluster", str(p), *flags]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    @pytest.mark.parametrize("argv,message", [
        (["smooth", "--alpha", "2", "--out", "x.csv"], "alpha must be in [0, 1], got 2.0"),
        (["cluster", "--k", "0"], "k, max_iter and restarts must all be >= 1"),
        (["cluster", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["predict", "--horizon", "-1"],
         "horizon and step must both be positive and finite, got -1.0 and 1.0"),
    ], ids=["smooth-alpha", "cluster-k", "cluster-seed", "predict-horizon"])
    def test_bad_flag_exits_2_before_reading(self, tmp_path, capsys, argv, message):
        # the input does not exist, so reading it first would report that instead
        command, *flags = argv
        assert main([command, str(tmp_path / "absent"), *flags]) == 2
        assert_one_error_line(capsys, message)

    def test_k_above_three_allowed(self, dataset_dir, capsys):
        tmp_path, _ = dataset_dir
        assert main(["--format", "json", "cluster", str(tmp_path / "series.csv"), "--k", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {row["cluster"] for row in doc["clusters"]} == {0, 1, 2, 3}


class TestSeedEnvOverride:
    def test_env_var_sets_default_seed(self, monkeypatch):
        from sulfexp.cli import build_parser

        monkeypatch.setenv("SULFEXP_SEED", "777")
        args = build_parser().parse_args(["cluster", "whatever.csv"])
        assert args.seed == 777

    def test_non_integer_seed_exits_2(self, monkeypatch, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        p.write_text(MIX_HEADER + "slow,0.45,5.0,55,,,,\n")
        monkeypatch.setenv("SULFEXP_SEED", "abc")
        assert main(["classify", str(p)]) == 2
        assert "SULFEXP_SEED must be an integer, got 'abc'" in capsys.readouterr().err


def reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for fragment in fragments:
        assert fragment in lines[0]


class TestNegativeSeed:
    def test_fit_seed_flag_exits_2(self, dataset_dir, capsys):
        tmp_path, _ = dataset_dir
        assert main(["fit", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b.json"),
                     "--seed", "-1"]) == 2
        assert_one_error_line(capsys, "seed must be a non-negative integer, got -1")
        assert not (tmp_path / "b.json").exists()

    def test_fit_seed_env_var_exits_2(self, dataset_dir, monkeypatch, capsys):
        tmp_path, _ = dataset_dir
        monkeypatch.setenv("SULFEXP_SEED", "-2")
        assert main(["fit", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "b.json")]) == 2
        assert_one_error_line(capsys, "seed must be a non-negative integer, got -2")

    def test_cluster_seed_flag_exits_2(self, dataset_dir, capsys):
        tmp_path, _ = dataset_dir
        assert main(["cluster", str(tmp_path / "series.csv"), "--seed", "-3"]) == 2
        assert_one_error_line(capsys, "seed must be a non-negative integer, got -3")


class TestNonFiniteBoxConstraint:
    def test_fit_box_constraint_inf_exits_2_naming_it(self, dataset_dir, capsys):
        tmp_path, _ = dataset_dir
        assert main(["fit", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b.json"),
                     "--box-constraint", "inf"]) == 2
        assert_one_error_line(capsys, "box constraint must be a finite positive number, got inf")


class TestConfigCheckedBeforeFitting:
    @pytest.mark.parametrize("flag,value,message", [
        ("--box-constraint", "inf", "box constraint must be a finite positive number, got inf"),
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ])
    def test_fit_exits_2_before_smoothing(self, dataset_dir, monkeypatch, capsys,
                                          flag, value, message):
        from sulfexp import curves

        def never(*args, **kwargs):
            raise AssertionError("smoothing ran before the configuration was checked")

        monkeypatch.setattr(curves, "smooth", never)
        tmp_path, _ = dataset_dir
        assert main(["fit", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b.json"),
                     flag, value]) == 2
        assert_one_error_line(capsys, message)
        assert not (tmp_path / "b.json").exists()


class TestHelp:
    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "0.3" in out      # smoothing weight default
        assert "100" in out      # box constraint default
        assert "0.5" in out      # failure threshold default
        assert "3" in out        # cluster count default


SERIES_HEADER = "mixture_id,t_years,expansion_percent\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_dataset(tmp_path, ds, replaced: dict[str, str]):
    """The dataset's tables and manifest, with the rows of ``replaced`` ids swapped."""
    write_mixtures([m for m, _ in ds.pairs], tmp_path / "mixtures.csv")
    write_series([s for _, s in ds.pairs], tmp_path / "series.csv")
    lines = (tmp_path / "series.csv").read_text().splitlines(keepends=True)
    kept = [line for line in lines if line.split(",")[0] not in replaced]
    (tmp_path / "series.csv").write_text("".join(kept) + "".join(replaced.values()))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"mixtures_path": "mixtures.csv", "series_path": "series.csv"}))


def sulfexp(tmp_path, *argv) -> subprocess.CompletedProcess:
    """``sulfexp`` in a fresh interpreter, as a user runs it."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "SULFEXP_SEED")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "sulfexp.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


class TestEveryFailedRecordIsNamed:
    ds = generate_synthetic((12, 16, 12), noise=0.03, seed=0)
    flat = {mid: "".join(f"{mid},{t},0.0\n" for t in range(0, 45, 5))
            for mid in ("syn0004", "syn0021")}
    short = {mid: f"{mid},0,0.1\n{mid},5,0.2\n" for mid in ("syn0006", "syn0021")}

    @pytest.mark.parametrize("command", ["fit", "cluster"])
    def test_flat_series(self, tmp_path, capsys, command):
        write_dataset(tmp_path, self.ds, self.flat)
        argv = (["fit", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b.json")]
                if command == "fit" else ["cluster", str(tmp_path / "series.csv")])
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "numerical failure: features: series 'syn0004' never reaches 0.5 and its terminal "
            "secant slope 0 admits no finite crossing (and 1 more: 'syn0021')"]

    @pytest.mark.parametrize("command,prefix", [("fit", "smoothing: "), ("cluster", "")])
    def test_short_series(self, tmp_path, capsys, command, prefix):
        write_dataset(tmp_path, self.ds, self.short)
        argv = (["fit", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b.json")]
                if command == "fit" else ["cluster", str(tmp_path / "series.csv")])
        assert main(argv) == 2
        assert_one_error_line(
            capsys, f"error: {prefix}series 'syn0006' has 2 samples; smoothing needs >= 3 "
                    "(and 1 more: 'syn0021')")


class TestNoWarningReachesStderr:
    overflow = "x,0,1e308\nx,1,-1e308\nx,2,1e308\n"

    def overflow_dataset(self, tmp_path):
        (tmp_path / "mixtures.csv").write_text(MIX_HEADER + "x,0.5,5,50,20,10,0.6,3\n")
        (tmp_path / "series.csv").write_text(SERIES_HEADER + self.overflow)
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"mixtures_path": "mixtures.csv", "series_path": "series.csv"}))

    def test_fit_on_header_only_tables(self, tmp_path):
        (tmp_path / "mixtures.csv").write_text(MIX_HEADER)
        (tmp_path / "series.csv").write_text(SERIES_HEADER)
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"mixtures_path": "mixtures.csv", "series_path": "series.csv"}))
        proc = sulfexp(tmp_path, "fit", "manifest.json", "--out", "b.json")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: the dataset holds no records"]

    @pytest.mark.parametrize("argv,message", [
        (["fit", "manifest.json", "--out", "b.json"],
         "error: smoothing: series 'x' has non-finite samples"),
        (["smooth", "series.csv", "--out", "o.csv"], "error: series 'x' has non-finite samples"),
    ], ids=["fit", "smooth"])
    def test_overflowing_series(self, tmp_path, argv, message):
        self.overflow_dataset(tmp_path)
        proc = sulfexp(tmp_path, *argv)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [message]

    @pytest.mark.parametrize("argv", [
        ["fit", "manifest.json", "--out", "b.json"],
        ["smooth", "series.csv", "--out", "o.csv"],
        ["cluster", "series.csv"],
    ], ids=["fit", "smooth", "cluster"])
    def test_in_process_under_warnings_as_errors(self, tmp_path, capsys, monkeypatch, argv):
        self.overflow_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert_one_error_line(capsys, "series 'x' has non-finite samples")
