"""Command-line front end.

Subcommands: classify, predict, fit, smooth, cluster. Exit codes: 0 on
success, 2 on input validation problems, 3 on numerical failures. The
default random seed can be overridden with the SULFEXP_SEED environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import clustering, curves, dataio, linalg, model
from .errors import NumericalError, SulfexpError, ValidationError
from .mixtures import GroupLabel

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _default_seed() -> int:
    env = os.environ.get("SULFEXP_SEED")
    if not env:
        return model.DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"SULFEXP_SEED must be an integer, got {env!r}") from None


def _load_bundle(args) -> model.ModelBundle:
    """The ``--bundle`` file, or the built-in model; with
    ``--raw-first-boundary``, without its simplified first boundary, so
    that HN is routed by the raw one."""
    bundle = model.default_bundle() if args.bundle is None else dataio.load_bundle(args.bundle)
    if args.raw_first_boundary:
        bundle = dataclasses.replace(bundle, boundary_first_simplified=None)
    return bundle


def _load_rows(load, path: str) -> list:
    """``load(path)``, which must hold at least one row."""
    rows = load(path)
    if not rows:
        raise ValidationError(f"no rows in {path}")
    return rows


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))


def _json_number(value: float) -> float | None:
    """``value``, or None (JSON ``null``) where JSON has no number for it."""
    return value if math.isfinite(value) else None


def _emit(args, payload: dict, header: list[str], rows: list[list[str]]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_table(header, rows)


def cmd_classify(args) -> int:
    bundle = _load_bundle(args)
    mixtures = _load_rows(dataio.load_mixtures, args.mixtures)
    rows = []
    payload = []
    for mix in mixtures:
        group = model.classify_mixture(mix, bundle)
        first, second = (
            boundary.value_at(*mix.require(*boundary.feature_names)) if boundary
            else float("nan") for boundary in (bundle.boundary_first, bundle.boundary_second))
        rows.append([mix.id, group.value, f"{first:.6g}", f"{second:.6g}"])
        payload.append({"id": mix.id, "group": group.value,
                        "first_boundary_value": _json_number(first),
                        "second_boundary_value": _json_number(second)})
    _emit(args, {"classifications": payload},
          ["id", "group", "first_boundary", "second_boundary"], rows)
    return 0


def cmd_predict(args) -> int:
    # the curves end at the grid's last time, which is the horizon only where the step divides it
    last = float(model.time_grid(args.horizon, args.step)[-1])
    bundle = _load_bundle(args)
    mixtures = _load_rows(dataio.load_mixtures, args.mixtures)
    series_out = []
    rows = []
    payload = []
    for mix in mixtures:
        series = model.predict_curve(mix, bundle, horizon=args.horizon, step=args.step)
        series_out.append(series)
        try:
            t_fail = model.predicted_failure_time(mix, bundle, GroupLabel(series.group))
            t_fail_text = f"{t_fail:.4g}"
        except NumericalError as exc:
            t_fail = None
            t_fail_text = f"n/a ({type(exc).__name__})"
        final = float(series.values[-1])
        rows.append([mix.id, series.group or "", f"{final:.6g}", t_fail_text])
        payload.append({"id": mix.id, "group": series.group,
                        "final_expansion": final, "predicted_failure_time": t_fail})
    if args.out:
        dataio.emit_plot_data(series_out, args.out)
    _emit(args, {"predictions": payload},
          ["id", "group", f"expansion@{last:g}y", "failure_time_years"], rows)
    return 0


def cmd_fit(args) -> int:
    config = model.PipelineConfig(
        alpha=args.alpha,
        k=args.k,
        box_constraint=args.box_constraint,
        seed=args.seed,
        threshold=args.threshold,
        standardize_features=not args.no_standardize,
        smooth_for_clustering=not args.cluster_raw,
        data_driven_variables=args.data_driven_variables,
    )
    dataio.check_writable(args.out)  # before the fit, not after it
    dataset = dataio.load_dataset(dataio.load_manifest(args.manifest))
    bundle = model.fit_pipeline(dataset, config)
    dataio.save_bundle(bundle, args.out)
    payload = _fit_payload(bundle, args.out)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_fit_report(payload)
    return 0


def _fit_payload(bundle: model.ModelBundle, out: str) -> dict:
    """Everything ``sulfexp fit`` reports about a fitted bundle, as plain JSON values."""
    payload = {
        "bundle": out,
        "provenance": bundle.provenance,
        "cluster_sizes": {g.value: n for g, n in bundle.diagnostics.cluster_sizes.items()},
        "groups": {},
    }
    for label in (GroupLabel.LL, GroupLabel.ML, GroupLabel.HN):
        if label not in bundle.models:
            continue
        entry = dataio._model_to_doc(bundle.models[label])
        del entry["group"]
        entry.update(entry.pop("fit"))
        payload["groups"][label.value] = entry
    if bundle.boundary_first is not None:
        payload["first_boundary"] = bundle.boundary_first.equation()
        payload["first_boundary_simplified"] = bundle.boundary_first_simplified.equation()
        payload["second_boundary"] = bundle.boundary_second.equation()
    return payload


def _print_fit_report(payload: dict) -> None:
    print(f"bundle written to {payload['bundle']}")
    print(f"provenance: {payload['provenance']}")
    sizes = payload["cluster_sizes"]
    print("cluster sizes: " + ", ".join(f"{g}={sizes[g]}" for g in sorted(sizes)))
    for label, group in payload["groups"].items():
        response = "ln(expansion)" if group["form"] == "log-linear" else "expansion"
        print(f"\ngroup {label} ({group['form']}; response {response}): "
              f"R^2 = {group['r_squared']:.4f}, residual std = {group['residual_std']:.4g}, "
              f"n = {group['n_observations']}")
        _print_table(
            ["variable", "coefficient", "t_statistic"],
            [[role, f"{coef:.6g}", f"{t:.3f}"] for role, coef, t in
             zip(group["variable_roles"], group["coefficients"], group["t_statistics"])],
        )
    if "first_boundary" in payload:
        print(f"\nfirst boundary (HN vs rest):  {payload['first_boundary']}")
        print(f"  simplified:                 {payload['first_boundary_simplified']}")
        print(f"second boundary (ML vs LL):   {payload['second_boundary']}")


def cmd_smooth(args) -> int:
    curves.check_alpha(args.alpha)
    series_list = _load_rows(dataio.load_series, args.series)
    smoothed = curves.smooth(curves.SeriesBlock.from_series(series_list), args.alpha)
    out_series = []
    labels = []
    for i, series in enumerate(series_list):
        out_series.extend([series, smoothed.series(i)])
        labels.extend([f"{series.mixture_id}/original", f"{series.mixture_id}/smoothed"])
    dataio.emit_plot_data(out_series, args.out, labels=labels)
    print(f"wrote {len(series_list)} smoothed curve pair(s) to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    # the checks and messages of ``fit``; k may exceed 3 in this diagnostic
    curves.check_alpha(args.alpha)
    linalg.check_positive("failure_threshold", args.threshold)
    clustering.check_settings(args.k, args.seed)
    series_list = _load_rows(dataio.load_series, args.series)
    block = curves.SeriesBlock.from_series(series_list)
    if not args.cluster_raw:
        block = curves.smooth(block, args.alpha)
    features, _, _, result = model.cluster_stage(
        block, args.threshold, args.k, args.seed, not args.no_standardize,
    )
    records = list(zip(block.ids, features.tolist(), result.assignments.tolist()))
    rows = [[mid, f"{t:.4g}", f"{slope:.6g}", str(c)] for mid, (t, slope), c in records]
    payload = [{"id": mid, "t_fail": t, "slope": slope, "cluster": c}
               for mid, (t, slope), c in records]
    _emit(args, {"clusters": payload, "objective": result.objective},
          ["id", "t_fail_years", "slope_pct_per_year", "cluster"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sulfexp",
        description="Classify concrete mixtures by sulfate-attack expansion pattern, "
                    "predict long-term expansion, and refit the model from data.",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: table)")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = model.PipelineConfig()

    # flags shared by several subcommands, each declared once
    routing = argparse.ArgumentParser(add_help=False)
    routing.add_argument("mixtures", help="mixture table (csv)")
    routing.add_argument("--bundle", help="model bundle file (default: built-in model)")
    routing.add_argument("--raw-first-boundary", action="store_true",
                         help="use the oblique first boundary instead of the simplified threshold")

    smoothing = argparse.ArgumentParser(add_help=False)
    smoothing.add_argument("--alpha", type=float, default=defaults.alpha,
                           help="smoothing weight on the point itself, 0..1 (default: %(default)s)")

    grouping = argparse.ArgumentParser(add_help=False)
    grouping.add_argument("--threshold", type=float, default=defaults.threshold,
                          help="failure threshold in expansion percent (default: %(default)s)")
    grouping.add_argument("--k", type=int, default=defaults.k,
                          help="number of expansion-pattern clusters (default: %(default)s)")
    grouping.add_argument("--no-standardize", action="store_true",
                          help="cluster on raw (t_fail, slope) features without z-scoring")
    grouping.add_argument("--cluster-raw", action="store_true",
                          help="cluster on raw curves instead of smoothed ones")
    grouping.add_argument("--seed", type=int, default=_default_seed(),
                          help="random seed (default: %(default)s; env SULFEXP_SEED overrides)")

    p = sub.add_parser("classify", parents=[routing],
                       help="assign mixtures to expansion-pattern groups")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", parents=[routing],
                       help="predict expansion curves and failure times")
    p.add_argument("--horizon", type=float, default=40.0,
                   help="prediction horizon in years (default: %(default)s)")
    p.add_argument("--step", type=float, default=1.0,
                   help="time grid step in years (default: %(default)s)")
    p.add_argument("--out", help="write the predicted curves as plot data to this path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit", parents=[smoothing, grouping],
                       help="refit the whole model from a dataset manifest")
    p.add_argument("manifest", help="dataset manifest (json with mixtures_path, series_path)")
    p.add_argument("--out", required=True, help="where to write the fitted bundle")
    p.add_argument("--box-constraint", type=float, default=defaults.box_constraint,
                   help="penalty weight on boundary margin violations (default: %(default)s)")
    p.add_argument("--data-driven-variables", action="store_true",
                   help="build regressors from the per-group variable screening "
                        "instead of the canonical model forms")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("smooth", parents=[smoothing], help="smooth expansion records (diagnostic)")
    p.add_argument("series", help="expansion record table (csv)")
    p.add_argument("--out", required=True, help="plot-data output path")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("cluster", parents=[smoothing, grouping],
                       help="cluster series by failure-point features (diagnostic)")
    p.add_argument("series", help="expansion record table (csv)")
    p.set_defaults(func=cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SulfexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
