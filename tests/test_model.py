import copy
import dataclasses
import decimal
import fractions
import hashlib
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regen_golden
import sulfexp
from sulfexp import clustering, curves, model, pca, regression, svm
from sulfexp.curves import ExpansionSeries, cluster_features, smooth
from sulfexp.dataio import generate_synthetic, load_bundle, save_bundle
from sulfexp.errors import (
    AlreadyFailed,
    EmptyGroup,
    MissingField,
    NegativeTime,
    NoConvergence,
    NonFiniteValue,
    NonIncreasing,
    NonPositiveTrend,
    PredictionOverflow,
    TooFewSamples,
    ValidationError,
)
from sulfexp.mixtures import MIXTURE_FIELDS, GroupLabel, Mixture
from sulfexp.model import (
    FIRST_AXES,
    MAX_CURVE_POINTS,
    SECOND_AXES,
    TIME_GRID_CACHE_SIZE,
    ModelBundle,
    PipelineConfig,
    classify_mixture,
    dataset_hash,
    fit_pipeline,
    default_bundle,
    predict_curve,
    predict_expansion,
    predicted_failure_time,
    refit_r2_report,
    time_grid,
    validate_holdout,
)
from sulfexp.svm import LinearBoundary

LL, ML, HN = GroupLabel.LL, GroupLabel.ML, GroupLabel.HN


class TestDefaultBundle:
    def test_shipped_coefficients(self):
        b = default_bundle()
        assert b.models[LL].coefficients.tolist() == [0.0157, 0.0305]
        assert b.models[ML].coefficients.tolist() == [0.0293, 0.000975, 0.0216]
        assert b.models[HN].coefficients.tolist() == [11.20, -5.68, -3.66]
        assert b.models[HN].form == "log-linear"
        assert b.models[LL].form == "linear"

    def test_shipped_boundaries(self):
        b = default_bundle()
        assert b.boundary_first.weights.tolist() == [1.0, 1.241]
        assert b.boundary_first.bias == -8.697
        assert b.boundary_second.weights.tolist() == [1.0, 387.3]
        assert b.boundary_second.bias == -233.6
        assert b.boundary_first_simplified.bias == -8.0
        assert b.failure_threshold == 0.5
        assert b.provenance == "default"

    def test_log_linear_only_for_hn(self):
        b = default_bundle()
        for g, model in b.models.items():
            assert (model.form == "log-linear") == (g is HN)

    def test_partial_follows_the_boundaries(self):
        b = default_bundle()
        assert not b.partial
        assert dataclasses.replace(b, boundary_second=None).partial
        assert dataclasses.replace(b, boundary_first_simplified=None, boundary_first=None).partial
        assert not dataclasses.replace(b, boundary_first=None).partial

    @pytest.mark.parametrize("place", ["boundary_first", "boundary_first_simplified",
                                       "boundary_second"])
    def test_boundary_on_an_unknown_field_rejected(self, place):
        b = default_bundle()
        boundary = getattr(b, place)
        moved = dataclasses.replace(boundary, feature_names=("zzz", boundary.feature_names[1]))
        with pytest.raises(ValidationError, match=f"^{place}: unknown mixture field 'zzz'$"):
            dataclasses.replace(b, **{place: moved})

    def test_boundary_whose_decision_values_overflow_rejected(self):
        b = default_bundle()
        huge = dataclasses.replace(b.boundary_second, weights=[1e308, 387.3])
        with pytest.raises(ValidationError, match="^boundary_second: decision values overflow"):
            dataclasses.replace(b, boundary_second=huge)
        # w/c is at most 1, so the same weight on it overflows nothing
        wide = dataclasses.replace(b.boundary_second, weights=[1.0, 1e308])
        mix = Mixture(id="m", wc=1.0, c3a=5.0, c3s=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify_mixture(mix, dataclasses.replace(b, boundary_second=wide)) is ML

    def test_one_shared_read_only_instance(self):
        b = default_bundle()
        assert b is default_bundle()
        with pytest.raises(ValueError):
            b.models[LL].coefficients[0] = 1.0
        with pytest.raises(ValueError):
            b.boundary_second.weights[1] = 0.0
        with pytest.raises(TypeError):
            b.models[LL] = b.models[ML]
        assert b.models[LL].coefficients.tolist() == [0.0157, 0.0305]
        assert b.boundary_second.weights.tolist() == [1.0, 387.3]

    @pytest.mark.parametrize("threshold", ["abc", None, True, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_bad_failure_threshold(self, threshold):
        with pytest.raises(ValidationError, match="failure_threshold"):
            dataclasses.replace(default_bundle(), failure_threshold=threshold)

    def test_accepts_a_positive_integer_threshold(self):
        assert dataclasses.replace(default_bundle(), failure_threshold=1).failure_threshold == 1

    def test_rejects_a_model_under_another_groups_key(self):
        models = dict(default_bundle().models)
        models[ML] = models[LL]
        with pytest.raises(ValidationError, match="stored under ML is for group LL"):
            dataclasses.replace(default_bundle(), models=models)


@pytest.fixture(scope="module")
def fitted_bundle():
    return fit_pipeline(generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs)


class TestReadOnlyArrays:
    """Every bundle's coefficient and weight arrays are read-only copies,
    so the routing rule and time-line terms derived from them at
    construction cannot go stale."""

    @pytest.fixture(params=["default", "fitted", "loaded"])
    def bundle(self, request, fitted_bundle, tmp_path):
        if request.param == "default":
            return default_bundle()
        if request.param == "fitted":
            return fitted_bundle
        save_bundle(fitted_bundle, tmp_path / "bundle.json")
        return load_bundle(tmp_path / "bundle.json")

    @staticmethod
    def assert_every_array_rejects_writes(bundle):
        arrays = [m.coefficients for m in bundle.models.values()] + [
            b.weights for b in (bundle.boundary_first, bundle.boundary_first_simplified,
                                bundle.boundary_second)]
        assert len(arrays) == 6
        for array in arrays:
            assert array.dtype == np.float64 and not array.flags.writeable
            before = array.tolist()
            with pytest.raises(ValueError):
                array[0] = 123.0
            with pytest.raises(ValueError):
                array.flags.writeable = True
            assert array.tolist() == before

    def test_every_array_rejects_writes(self, bundle):
        self.assert_every_array_rejects_writes(bundle)

    def test_boundary_does_not_alias_its_weights(self):
        w = np.array([1.0, 387.3])
        b = LinearBoundary(("c3s", "wc"), w, -233.6)
        w[1] = 0.0
        assert b.weights.tolist() == [1.0, 387.3]
        assert b.decision_value([50.0, 0.5]) == 50.0 * 1.0 + 0.5 * 387.3 + -233.6

    def test_group_model_does_not_alias_its_coefficients(self):
        c = np.array([0.0293, 0.000975, 0.0216])
        group_model = regression.GroupModel(
            group=ML, variable_roles=("WC*T", "C3A*T", "const"), coefficients=c)
        mix = Mixture(id="m", wc=0.5, c3a=6.0)
        line = group_model.time_line(mix)
        c[:] = 9.0
        assert group_model.coefficients.tolist() == [0.0293, 0.000975, 0.0216]
        assert group_model.time_line(mix) == line

    def test_bundle_routes_by_its_own_copies(self):
        weights = np.array([1.0, 387.3])
        second = LinearBoundary(("c3s", "wc"), weights, -233.6)
        bundle = dataclasses.replace(default_bundle(), boundary_second=second)
        mix = Mixture(id="m", wc=0.45, c3a=5.0, c3s=55.0)
        assert classify_mixture(mix, bundle) is LL
        weights[0] = 1000.0
        assert classify_mixture(mix, bundle) is LL

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
                             ids=["deepcopy", "pickle"])
    def test_copies_are_built_again_with_read_only_arrays(self, fitted_bundle, duplicate):
        copied = duplicate(fitted_bundle)
        assert copied == fitted_bundle
        self.assert_every_array_rejects_writes(copied)
        mix = Mixture(id="m", wc=0.45, c3a=5.0, c3s=55.0, cement_content=0.5)
        assert classify_mixture(mix, copied) is classify_mixture(mix, fitted_bundle)
        for label, group_model in copied.models.items():
            assert group_model.time_line(mix) == fitted_bundle.models[label].time_line(mix)
        for original in (fitted_bundle.boundary_second, fitted_bundle.models[LL]):
            single = duplicate(original)
            assert single == original and single is not original
            array = single.weights if isinstance(single, LinearBoundary) else single.coefficients
            assert not array.flags.writeable


class TestClassifyMixture:
    def test_simplified_rule_examples(self):
        assert classify_mixture(Mixture(id="a", wc=0.5, c3a=9.0, c3s=40.0)) is HN
        assert classify_mixture(Mixture(id="b", wc=0.481, c3a=5.1, c3s=50.0)) is ML
        assert classify_mixture(Mixture(id="c", wc=0.45, c3a=5.0, c3s=55.0)) is LL

    def test_raw_first_boundary(self):
        mix = Mixture(id="a", wc=0.5, c3a=10.0, c3s=40.0)
        raw = dataclasses.replace(default_bundle(), boundary_first_simplified=None)
        assert classify_mixture(mix, raw) is HN

    def test_simplified_threshold_is_strict(self):
        # c3a exactly 8 goes to the linear groups
        mix = Mixture(id="edge", wc=0.481, c3a=8.0, c3s=50.0)
        assert classify_mixture(mix) in (ML, LL)

    def test_second_boundary_tie_is_ml(self):
        # choose c3s so the decision value is exactly 0
        wc = 0.5
        c3s = 233.6 - 387.3 * wc
        mix = Mixture(id="tie", wc=wc, c3a=5.0, c3s=c3s)
        assert classify_mixture(mix) is ML

    def test_missing_field(self):
        with pytest.raises(MissingField):
            classify_mixture(Mixture(id="x", wc=0.5))

    def test_depends_only_on_classification_fields(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            wc = rng.uniform(0.41, 0.6)
            c3a = rng.uniform(1.0, 12.0)
            c3s = rng.uniform(20.0, 70.0)
            base = classify_mixture(Mixture(id="b", wc=wc, c3a=c3a, c3s=c3s))
            perturbed = classify_mixture(Mixture(
                id="p", wc=wc, c3a=c3a, c3s=c3s,
                c2s=rng.uniform(0, 100), c4af=rng.uniform(0, 100),
                cement_content=rng.uniform(0, 1), air=rng.uniform(0, 100),
            ))
            assert base is perturbed

    def test_exhaustive_single_label(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            mix = Mixture(id="r", wc=rng.uniform(0.3, 0.7),
                          c3a=rng.uniform(0, 14), c3s=rng.uniform(0, 100))
            assert classify_mixture(mix) in (HN, ML, LL)


class TestFirstBoundaryRoute:
    """The bundle decides the HN route: its simplified first boundary when
    it has one, else its raw first boundary."""

    def test_raw_route_follows_the_sign_with_zero_as_hn(self):
        # c3a + 2*wc - 9 is exactly 0 at (8.0, 0.5)
        first = LinearBoundary(("c3a", "wc"), [1.0, 2.0], bias=-9.0)
        raw = dataclasses.replace(default_bundle(), boundary_first=first,
                                  boundary_first_simplified=None)
        assert classify_mixture(Mixture(id="on", c3a=8.0, wc=0.5, c3s=40.0), raw) is HN
        second = raw.boundary_second
        rng = np.random.default_rng(4)
        for _ in range(200):
            mix = Mixture(id="r", wc=rng.uniform(0.3, 0.7),
                          c3a=rng.uniform(0, 14), c3s=rng.uniform(0, 100))
            if first.decision_value([mix.c3a, mix.wc]) >= 0:
                expected = HN
            else:
                expected = ML if second.decision_value([mix.c3s, mix.wc]) >= 0 else LL
            assert classify_mixture(mix, raw) is expected

    def test_simplified_route_needs_no_raw_boundary(self):
        simplified_only = dataclasses.replace(default_bundle(), boundary_first=None)
        assert classify_mixture(Mixture(id="at", c3a=8.0, wc=0.5, c3s=40.0),
                                simplified_only) is not HN
        rng = np.random.default_rng(5)
        for _ in range(200):
            mix = Mixture(id="r", wc=rng.uniform(0.3, 0.7),
                          c3a=rng.uniform(0, 14), c3s=rng.uniform(0, 100))
            assert classify_mixture(mix, simplified_only) is classify_mixture(mix)

    def test_points_exactly_on_a_raw_boundary_take_its_non_negative_side(self):
        # each bias puts the mixture exactly on the line under the decision
        # value's sum x0*w0 + x1*w1 + bias; numpy's point @ weights, fused on
        # some BLAS kernels, differs from it in the last bit on some of these
        # points and would move them off
        rng = np.random.default_rng(6)
        for _ in range(1000):
            mix = Mixture(id="on", wc=rng.uniform(0.01, 1.0), c3a=rng.uniform(0, 100),
                          c3s=rng.uniform(0, 100))
            (a0, a1), (b0, b1) = rng.uniform(-50, 50, 2).tolist(), rng.uniform(-50, 50, 2).tolist()
            first = LinearBoundary(FIRST_AXES, [a0, a1], -(mix.c3a * a0 + mix.wc * a1))
            second = LinearBoundary(SECOND_AXES, [b0, b1], -(mix.c3s * b0 + mix.wc * b1))
            raw = dataclasses.replace(default_bundle(), boundary_first=first,
                                      boundary_first_simplified=None, boundary_second=second)
            assert classify_mixture(mix, raw) is HN
            simplified = dataclasses.replace(default_bundle(), boundary_second=second)
            assert classify_mixture(mix, simplified) is (HN if mix.c3a > 8.0 else ML)

    @pytest.mark.parametrize("weights", [[1.0, 0.5], [1.0, -20.0], [-0.1, 3.0]])
    def test_tilted_simplified_boundary_is_rejected(self, weights):
        # read as a threshold on c3a, [1.0, 0.5] would route c3a=7.9, wc=0.5
        # (+0.15 on the line) to ML, and [1.0, -20.0] would never route to HN
        tilted = LinearBoundary(("c3a", "wc"), weights, bias=-8.0)
        with pytest.raises(ValidationError, match="simplified first boundary must be "
                                                  "axis-parallel"):
            dataclasses.replace(default_bundle(), boundary_first_simplified=tilted)

    def test_no_first_boundary_is_rejected(self):
        neither = dataclasses.replace(default_bundle(), boundary_first=None,
                                      boundary_first_simplified=None)
        with pytest.raises(ValidationError, match="no classification boundaries"):
            classify_mixture(Mixture(id="m", c3a=5.0, wc=0.5, c3s=40.0), neither)


def route_oracle(mix: Mixture, bundle) -> GroupLabel:
    """The rule of :func:`classify_mixture`'s docstring, from
    :meth:`LinearBoundary.decision_value`."""
    simplified, first, second = (bundle.boundary_first_simplified, bundle.boundary_first,
                                 bundle.boundary_second)
    if second is None or (first is None and simplified is None):
        raise ValidationError("bundle has no classification boundaries (partial bundle)")
    if simplified is not None:
        (axis,) = [i for i, w in enumerate(simplified.weights.tolist()) if w != 0.0]
        weight = float(simplified.weights[axis])
        value = mix.require(simplified.feature_names[axis])[0]
        threshold = -simplified.bias / weight
        is_hn = value > threshold if weight > 0 else value < threshold
    else:
        is_hn = first.decision_value(mix.require(*first.feature_names)) >= 0
    if is_hn:
        return HN
    return ML if second.decision_value(mix.require(*second.feature_names)) >= 0 else LL


def time_line_oracle(model, mix: Mixture) -> tuple[float, float]:
    """slope and intercept of a group model, summed term by term in role order."""
    field_of = {role: f for f, role in regression.FIELD_TO_ROLE.items()}
    slope = intercept = 0.0
    for role, c in zip(model.variable_roles, model.coefficients.tolist()):
        if role == regression.CONST_ROLE:
            intercept += c
        elif role == "T":
            slope += c
        else:
            slope += c * mix.require(field_of[role])[0]
    return slope, intercept


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except (ValidationError, NonIncreasing, AlreadyFailed, PredictionOverflow) as exc:
        return type(exc), str(exc)


def spread(lo: float, hi: float):
    """Floats in [lo, hi]: hypothesis's own, or full-mantissa ones whose
    products round, so that a sum made in another order can land on the
    other side of a tie."""
    return st.one_of(st.floats(lo, hi), st.integers(0, 2**53).map(
        lambda k: min(hi, lo + (hi - lo) * (k / 2**53))))


finite = spread(-50.0, 50.0)
nonzero = finite.filter(lambda w: w != 0.0)


@st.composite
def mixtures_and_bundles(draw):
    """A mixture (perhaps missing one field) and a bundle routing it: random
    boundaries and models, the simplified boundary present or removed, or
    a partial bundle; a raw boundary may pass exactly through the mixture."""
    values = {
        "wc": draw(spread(0.01, 1.0)), "c3a": draw(spread(0.0, 100.0)),
        "c3s": draw(spread(0.0, 100.0)), "c2s": draw(spread(0.0, 100.0)),
        "cement_content": draw(spread(0.0, 1.0)),
    }
    dropped = draw(st.sampled_from([None, None, None, *values]))
    mix = Mixture(id="m", **{k: v for k, v in values.items() if k != dropped})

    def boundary(axes, on_mixture):
        weights = np.array([draw(finite), draw(finite)])
        weights[draw(st.integers(0, 1))] = draw(nonzero)   # not both zero
        if on_mixture:   # the decision value at the mixture is exactly 0
            bias = -float(np.array([values[a] for a in axes]) @ weights)
        else:
            bias = draw(st.floats(-1e3, 1e3))
        return LinearBoundary(axes, weights, bias)

    axis = draw(st.integers(0, 1))
    simplified_weights = [0.0, 0.0]
    simplified_weights[axis] = draw(nonzero)
    simplified = LinearBoundary(FIRST_AXES, simplified_weights, draw(st.floats(-100.0, 100.0)))
    if draw(st.booleans()):   # a threshold exactly at the mixture's value
        simplified = LinearBoundary(FIRST_AXES, simplified_weights,
                                    -values[FIRST_AXES[axis]] * simplified_weights[axis])
    roles = {
        LL: ("WC*T", "const"), ML: ("WC*T", "C3A*T", "const"), HN: ("CC*T", "T", "const")}
    if draw(st.booleans()):   # data-driven roles
        scaled = st.sampled_from(["WC*T", "C3A*T", "C3S*T", "C2S*T", "CC*T", "T"])
        roles = {g: tuple(dict.fromkeys(draw(st.lists(scaled, min_size=1, max_size=3))))
                 + ("const",) for g in roles}
    models = {g: regression.GroupModel(
        group=g, variable_roles=r,
        coefficients=[draw(spread(-3.0, 3.0)) for _ in r]) for g, r in roles.items()}
    bundle = ModelBundle(
        models=models,
        boundary_first=boundary(FIRST_AXES, draw(st.booleans())),
        boundary_first_simplified=simplified,
        boundary_second=boundary(SECOND_AXES, draw(st.booleans())),
        provenance="drawn",
        failure_threshold=draw(st.floats(0.05, 5.0)),
    )
    variant = draw(st.sampled_from(["simplified", "simplified", "raw", "raw", "partial",
                                    "no first"]))
    if variant == "raw":
        bundle = dataclasses.replace(bundle, boundary_first_simplified=None)
    elif variant == "partial":
        bundle = dataclasses.replace(bundle, boundary_second=None)
    elif variant == "no first":
        bundle = dataclasses.replace(bundle, boundary_first=None, boundary_first_simplified=None)
    return mix, bundle


class TestPortableDecisionValue:
    """A decision value is one Python-float sum, x0*w0 + x1*w1 + bias, rounded
    left to right: no fused multiply-add, whatever BLAS kernel numpy runs."""

    @settings(max_examples=500, deadline=None)
    @given(x0=st.one_of(spread(0.0, 100.0), spread(-1e3, 1e3)), x1=spread(0.01, 1.0),
           w0=finite, w1=nonzero, bias=st.floats(-1e3, 1e3))
    def test_is_the_left_to_right_sum(self, x0, x1, w0, w1, bias):
        boundary = LinearBoundary(SECOND_AXES, [w0, w1], bias)
        expected = (x0 * w0 + x1 * w1 + bias).hex()
        assert boundary.value_at(x0, x1).hex() == expected
        assert boundary.decision_value([x0, x1]).hex() == expected
        assert boundary.decision_value(np.array([x0, x1], dtype=np.float64)).hex() == expected

    @settings(max_examples=500, deadline=None)
    @given(c3a=spread(0.0, 100.0), c3s=spread(0.0, 100.0), wc=spread(0.01, 1.0),
           w0=nonzero, w1=nonzero)
    def test_a_zero_sum_routes_to_the_non_negative_side(self, c3a, c3s, wc, w0, w1):
        mix = Mixture(id="on", wc=wc, c3a=c3a, c3s=c3s)
        first = LinearBoundary(FIRST_AXES, [w0, w1], -(c3a * w0 + wc * w1))
        second = LinearBoundary(SECOND_AXES, [w1, w0], -(c3s * w1 + wc * w0))
        assert first.decision_value([c3a, wc]) == 0.0 == second.decision_value([c3s, wc])
        raw = dataclasses.replace(default_bundle(), boundary_first=first,
                                  boundary_first_simplified=None, boundary_second=second)
        assert classify_mixture(mix, raw) is HN
        simplified = dataclasses.replace(default_bundle(), boundary_second=second)
        assert classify_mixture(mix, simplified) is (HN if c3a > 8.0 else ML)

    def test_private_terms_stay_out_of_the_fields(self):
        boundary = LinearBoundary(SECOND_AXES, [1.0, 387.3], -233.6, box_constraint=100.0)
        assert boundary._terms == (1.0, 387.3, -233.6)
        assert all(type(term) is float for term in boundary._terms)
        assert "_terms" not in repr(boundary)
        for copied in (copy.deepcopy(boundary), pickle.loads(pickle.dumps(boundary)),
                       dataclasses.replace(boundary)):
            assert copied == boundary and copied._terms == boundary._terms
        moved = dataclasses.replace(boundary, bias=-200.0)
        assert moved._terms == (1.0, 387.3, -200.0)
        assert moved.value_at(50.0, 0.5) == 50.0 * 1.0 + 0.5 * 387.3 + -200.0


class TestRoutingOracle:
    """Routing, curves and failure times against references that rederive
    everything per call, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(drawn=mixtures_and_bundles(), horizon=st.floats(0.5, 60.0),
           step=st.floats(0.05, 5.0))
    def test_matches_the_per_call_reference(self, drawn, horizon, step):
        mix, bundle = drawn
        expected = outcome(lambda: route_oracle(mix, bundle))
        assert outcome(lambda: classify_mixture(mix, bundle)) == expected
        if not isinstance(expected, GroupLabel):
            return
        group_model = bundle.models[expected]
        line = outcome(lambda: time_line_oracle(group_model, mix))
        assert outcome(lambda: group_model.time_line(mix)) == line
        if not isinstance(line, tuple) or not isinstance(line[0], float):
            return
        slope, intercept = line

        grid_step = min(step, horizon)
        times = np.arange(int(math.floor(horizon / grid_step + 1e-9)) + 1) * grid_step
        values = slope * times + intercept
        if group_model.form == "log-linear" and values.max() > math.log(sys.float_info.max):
            with pytest.raises(PredictionOverflow):
                predict_curve(mix, bundle, horizon=horizon, step=step)
        else:
            if group_model.form == "log-linear":
                values = np.exp(values)
            curve = predict_curve(mix, bundle, horizon=horizon, step=step)
            assert curve.group == expected.value
            assert curve.times.tobytes() == times.astype(float).tobytes()
            assert curve.values.tobytes() == values.tobytes()

        target = bundle.failure_threshold
        if group_model.form == "log-linear":
            target = math.log(target)
        t_fail = outcome(lambda: predicted_failure_time(mix, bundle))
        if intercept >= target:
            assert t_fail[0] is AlreadyFailed
        elif slope <= 0:
            assert t_fail[0] is NonIncreasing
        elif math.isinf((target - intercept) / slope):   # a subnormal slope
            assert t_fail[0] is PredictionOverflow
        else:
            assert t_fail == (target - intercept) / slope


    def test_time_line_adds_every_term_in_role_order(self):
        # with eight time-scaled terms a sum in any other order differs in the last bit
        roles = tuple(regression.FIELD_TO_ROLE.values()) + ("T", regression.CONST_ROLE)
        rng = np.random.default_rng(8)
        for _ in range(300):
            group_model = regression.GroupModel(group=ML, variable_roles=roles,
                                                coefficients=rng.uniform(-3, 3, len(roles)))
            mix = Mixture(id="m", wc=rng.uniform(0.01, 1.0), c3a=rng.uniform(0, 100),
                          c3s=rng.uniform(0, 100), c2s=rng.uniform(0, 100),
                          c4af=rng.uniform(0, 100), cement_content=rng.uniform(0, 1),
                          air=rng.uniform(0, 100))
            assert group_model.time_line(mix) == time_line_oracle(group_model, mix)


class TestPredictExpansion:
    def test_ll_hand_evaluation(self):
        got = predict_expansion(Mixture(id="1000", wc=0.49), LL, t=40.0)
        assert got == pytest.approx(0.0157 * 0.49 * 40 + 0.0305, rel=1e-12)

    def test_ml_hand_evaluation(self):
        got = predict_expansion(Mixture(id="1018", wc=0.481, c3a=5.1), ML, t=20.0)
        assert got == pytest.approx(0.402916, rel=1e-9)

    def test_hn_hand_evaluation(self):
        got = predict_expansion(Mixture(id="1033", cement_content=0.589), HN, t=5.0)
        assert got == pytest.approx(math.exp(11.20 * 0.589 * 5 - 5.68 * 5 - 3.66), rel=1e-9)
        assert got == pytest.approx(2.5194, rel=1e-4)

    def test_negative_time(self):
        with pytest.raises(NegativeTime):
            predict_expansion(Mixture(id="x", wc=0.5), LL, t=-1.0)
        for group in (LL, HN):
            for t in (math.nan, math.inf):
                with pytest.raises(ValidationError, match=f"time must be finite, got {t}") as info:
                    predict_expansion(Mixture(id="x", wc=0.5, cement_content=0.3), group, t=t)
                assert not isinstance(info.value, NegativeTime)

    def test_missing_field(self):
        with pytest.raises(MissingField):
            predict_expansion(Mixture(id="x", wc=0.5), HN, t=1.0)

    def test_linear_groups_affine_in_time(self):
        mix = Mixture(id="x", wc=0.52, c3a=6.0)
        for group in (LL, ML):
            values = [predict_expansion(mix, group, t=t) for t in np.arange(0, 41, 2.0)]
            second = np.diff(values, n=2)
            assert np.abs(second).max() <= 1e-12

    def test_hn_log_affine_in_time(self):
        mix = Mixture(id="x", cement_content=0.6)
        values = [predict_expansion(mix, HN, t=t) for t in np.arange(0, 10.5, 0.5)]
        second = np.diff(np.log(values), n=2)
        assert np.abs(second).max() <= 1e-10

    def test_monotone_in_wc_and_c3a(self):
        t = 15.0
        for group in (LL, ML):
            lo = predict_expansion(Mixture(id="a", wc=0.45, c3a=5.0), group, t=t)
            hi = predict_expansion(Mixture(id="b", wc=0.55, c3a=5.0), group, t=t)
            assert hi > lo
        lo = predict_expansion(Mixture(id="a", wc=0.5, c3a=4.0), ML, t=t)
        hi = predict_expansion(Mixture(id="b", wc=0.5, c3a=7.0), ML, t=t)
        assert hi > lo


class TestPredictCurve:
    def test_ll_sampled_curve(self):
        series = predict_curve(Mixture(id="1000", wc=0.49, c3a=5.0, c3s=40.0),
                               horizon=40.0, step=10.0)
        assert series.group == "LL"
        expected = [0.0157 * 0.49 * t + 0.0305 for t in (0, 10, 20, 30, 40)]
        assert np.allclose(series.values, expected, rtol=1e-12)
        assert series.times.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_step_beyond_horizon_clamps(self):
        series = predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0),
                               horizon=40.0, step=50.0)
        assert series.times.tolist() == [0.0, 40.0]

    def test_unaligned_horizon_excluded(self):
        series = predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0),
                               horizon=40.0, step=7.0)
        assert series.times.tolist() == [0.0, 7.0, 14.0, 21.0, 28.0, 35.0]

    def test_integer_grid_beyond_int64(self):
        # an integer step whose grid times overflow a 64-bit integer
        series = predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0),
                               horizon=10**20, step=10**20)
        assert series.times.tolist() == [0.0, 1e20]
        assert series.values.tolist() == [0.0305, 0.0157 * 0.49 * 1e20 + 0.0305]

    def test_time_zero_is_intercept(self):
        series = predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0),
                               horizon=10.0, step=10.0)
        assert series.values[0] == pytest.approx(0.0305, abs=1e-15)

    def test_bad_grid(self):
        with pytest.raises(ValidationError):
            predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0), step=0.0)

    def test_grid_size_cap(self):
        mix = Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0)
        series = predict_curve(mix, horizon=MAX_CURVE_POINTS - 1.0, step=1.0)
        assert len(series.samples) == MAX_CURVE_POINTS
        with pytest.raises(ValidationError, match="grid points"):
            predict_curve(mix, horizon=float(MAX_CURVE_POINTS), step=1.0)

    def test_grid_size_cap_is_exact(self):
        # 0, 1, ..., 99999: exactly MAX_CURVE_POINTS points; one more is too many
        mix = Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0)
        series = predict_curve(mix, horizon=MAX_CURVE_POINTS - 0.5, step=1.0)
        assert len(series.samples) == MAX_CURVE_POINTS
        with pytest.raises(ValidationError, match=f"more than {MAX_CURVE_POINTS} grid"):
            predict_curve(mix, horizon=MAX_CURVE_POINTS + 0.5, step=1.0)

    @pytest.mark.parametrize("horizon,step", [(40.0, 1.0), (40.0, 7.0), (12.5, 0.3)])
    def test_curve_equals_point_predictions_bit_for_bit(self, horizon, step):
        for mix in (
            Mixture(id="ll", wc=0.43, c3a=4.2, c3s=55.0),
            Mixture(id="ml", wc=0.53, c3a=6.1, c3s=40.0),
            Mixture(id="hn", wc=0.55, c3a=10.0, c3s=45.0, cement_content=0.601),
        ):
            series = predict_curve(mix, horizon=horizon, step=step)
            group = GroupLabel(series.group)
            assert group.value == mix.id.upper()
            assert series.values.tolist() == [
                predict_expansion(mix, group, t=t) for t in series.times.tolist()]


def _rejects_writes(array: np.ndarray) -> bool:
    try:
        array[0] = 5.0
    except ValueError:
        try:
            array.flags.writeable = True
        except ValueError:
            return True
    return False


class TestTimeGrid:
    def test_grid_and_curves_are_read_only(self):
        grid = time_grid(40.0, 1.0)
        assert _rejects_writes(grid)
        curve = predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0), horizon=40.0, step=1.0)
        assert _rejects_writes(curve.times) and _rejects_writes(curve.values)
        assert curve.times is time_grid(40.0, 1.0)
        assert grid.tolist() == list(map(float, range(41)))

    @pytest.mark.parametrize("horizon,step,match", [
        (0.0, 1.0, "positive and finite"), (40.0, -1.0, "positive and finite"),
        (math.nan, 1.0, "positive and finite"), (40.0, math.inf, "positive and finite"),
        (MAX_CURVE_POINTS + 0.5, 1.0, "grid points"), (1.0, 1e-300, "grid points")])
    def test_bad_grid_raises_on_every_call(self, horizon, step, match):
        time_grid(40.0, 1.0)
        for _ in range(3):
            with pytest.raises(ValidationError, match=match):
                time_grid(horizon, step)
            with pytest.raises(ValidationError, match=match):
                predict_curve(Mixture(id="x", wc=0.49, c3a=5.0, c3s=40.0),
                              horizon=horizon, step=step)

    @pytest.mark.parametrize("horizon,step,exact_horizon,exact_step", [
        (40.0, 0.5, 40, fractions.Fraction(1, 2)),
        (40.0, 1.0, decimal.Decimal("40"), decimal.Decimal("1")),
        (12.5, 0.3, np.float64(12.5), np.float64(0.3)),
        (1e20, 1e20, 10**20, 10**20),
        (7.0, 7.0, 7, 100),
    ])
    def test_exact_numbers_give_the_float_grid(self, horizon, step, exact_horizon, exact_step):
        expected = time_grid(horizon, step)
        grid = time_grid(exact_horizon, exact_step)
        assert grid.dtype == np.float64
        assert grid.tobytes() == expected.tobytes()

    def test_an_overflowing_grid_raises_no_numpy_warning(self):
        # the grid has four points, and the last, 3 * step, is past the largest float
        horizon, step = sys.float_info.max, sys.float_info.max / (3 - 5e-10)
        mixtures = {"LL": Mixture(id="l", wc=0.43, c3a=4.0, c3s=60.0),
                    "ML": Mixture(id="m", wc=0.53, c3a=6.0, c3s=40.0),
                    "HN": TestPredictionOverflow.HOT}
        model._grid.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for group, mix in mixtures.items():
                with pytest.raises(PredictionOverflow, match=f"group {group} expansion"):
                    predict_curve(mix, horizon=horizon, step=step)
            grid = time_grid(horizon, step)
        assert grid.size == 4 and math.isinf(grid[-1]) and _rejects_writes(grid)

    def test_cache_holds_at_most_its_size(self):
        model._grid.cache_clear()
        sizes = [MAX_CURVE_POINTS, 2, 41, 50_001, MAX_CURVE_POINTS - 1, 3, 1000, 99, 7, 12,
                 77_777, 4]
        assert len(sizes) > TIME_GRID_CACHE_SIZE + 1
        grids = {}
        for points in sizes:
            grids[points] = time_grid(points - 1.0, 1.0)
            assert grids[points].size == points
            assert model._grid.cache_info().currsize <= TIME_GRID_CACHE_SIZE
        assert model._grid.cache_info().maxsize == TIME_GRID_CACHE_SIZE
        assert model._grid.cache_info().currsize == TIME_GRID_CACHE_SIZE
        first = sizes[0]   # evicted by now, then built again with the same bits
        assert time_grid(first - 1.0, 1.0) is not grids[first]
        assert time_grid(first - 1.0, 1.0).tobytes() == grids[first].tobytes()


def curve_oracle(mix: Mixture, bundle, horizon: float, step: float) -> ExpansionSeries:
    """:func:`predict_curve` built anew: a fresh grid,
    :func:`route_oracle`'s group and a series copied by ``from_columns``."""
    if not (math.isfinite(horizon) and math.isfinite(step) and horizon > 0 and step > 0):
        raise ValidationError(
            f"horizon and step must both be positive and finite, got {horizon} and {step}")
    step = min(step, horizon)
    steps = horizon / step + 1e-9
    if steps >= MAX_CURVE_POINTS:
        raise ValidationError(f"a horizon of {horizon:g} at step {step:g} needs more than "
                              f"{MAX_CURVE_POINTS} grid points")
    with np.errstate(over="ignore"):   # an overflowing last time is the line's to reject
        grid = np.arange(math.floor(steps) + 1, dtype=float) * step
    group = route_oracle(mix, bundle)
    group_model = bundle.models[group]
    time_line_oracle(group_model, mix)   # its MissingField, read through Mixture.require
    return ExpansionSeries.from_columns(mix.id, grid, group_model.expansion(mix, grid),
                                        group.value)


#: the largest float, and a step at which a grid's last point overflows it
_FMAX = sys.float_info.max
GRID_PAIRS = [
    (40.0, 1.0), (40.0, 7.0), (12.5, 0.3), (40.0, 50.0), (200.0, 1.0), (1e20, 1e20),
    (MAX_CURVE_POINTS - 0.5, 1.0), (0.0, 1.0), (40.0, -1.0), (math.nan, 1.0),
    (40.0, math.inf), (MAX_CURVE_POINTS + 0.5, 1.0), (_FMAX, _FMAX / (3 - 5e-10)),
]


@st.composite
def candidates(draw):
    """A mixture and a bundle: a random pair of :func:`mixtures_and_bundles`,
    a mixture of the generator's regions or an HN mixture whose curve
    overflows past about 129 years, routed by the default bundle."""
    kind = draw(st.sampled_from(["random", "generated", "hot"]))
    if kind == "random":
        return draw(mixtures_and_bundles())
    if kind == "hot":
        return TestPredictionOverflow.HOT, default_bundle()
    group = draw(st.sampled_from([HN, ML, LL]))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    return _generator_mixture(group, u), default_bundle()


class TestCurveOracle:
    @settings(max_examples=300, deadline=None)
    @given(drawn=candidates(), grid=st.one_of(
        st.sampled_from(GRID_PAIRS), st.tuples(st.floats(0.5, 60.0), st.floats(0.05, 5.0))))
    def test_matches_a_fresh_grid_and_a_copied_series(self, drawn, grid):
        mix, bundle = drawn
        horizon, step = grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = outcome(lambda: curve_oracle(mix, bundle, horizon, step))
            for _ in range(2):   # the first call may build the grid, the second reads it
                curve = outcome(lambda: predict_curve(mix, bundle, horizon, step))
                if not isinstance(expected, ExpansionSeries):
                    assert curve == expected
                    continue
                assert (curve.mixture_id, curve.group) == (expected.mixture_id, expected.group)
                assert curve.times.tobytes() == expected.times.tobytes()
                assert curve.values.tobytes() == expected.values.tobytes()
                assert _rejects_writes(curve.times) and _rejects_writes(curve.values)

    def test_error_texts(self):
        ll = Mixture(id="l", wc=0.43, c3a=4.0, c3s=60.0)
        flat = _with_model(LL, [0.0, 0.0305])   # 0 * inf is a NaN bound on an overflowing grid
        cases = [
            (TestPredictionOverflow.HOT, default_bundle(), 200.0, 1.0, PredictionOverflow),
            (ll, default_bundle(), _FMAX, _FMAX / (3 - 5e-10), PredictionOverflow),
            (ll, flat, _FMAX, _FMAX / (3 - 5e-10), PredictionOverflow),
            (Mixture(id="h", wc=0.5, c3a=10.0), default_bundle(), 40.0, 1.0, MissingField),
            (Mixture(id="c", c3a=5.0), default_bundle(), 40.0, 1.0, MissingField),
            (ll, default_bundle(), 40.0, 0.0, ValidationError),
            (ll, dataclasses.replace(default_bundle(), boundary_second=None), 40.0, 1.0,
             ValidationError),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mix, bundle, horizon, step, error in cases:
                expected = outcome(lambda: curve_oracle(mix, bundle, horizon, step))
                assert expected[0] is error
                assert outcome(lambda: predict_curve(mix, bundle, horizon, step)) == expected


class TestPredictionOverflow:
    HOT = Mixture(id="hot", wc=0.5, c3a=10.0, c3s=40.0, cement_content=1.0)

    def test_overflowing_hn_prediction_is_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictionOverflow, match="'hot'"):
                predict_curve(self.HOT, horizon=200.0)
            with pytest.raises(PredictionOverflow):
                predict_expansion(self.HOT, HN, t=200.0)

    def test_largest_finite_prediction_passes(self):
        # ln(expansion) = 5.52*t - 3.66 stays below ln(float max) ~ 709.78 up to t ~ 129.2
        assert math.isfinite(predict_expansion(self.HOT, HN, t=129.0))
        assert math.isfinite(predict_curve(self.HOT, horizon=100.0).values[-1])


def _with_model(group: GroupLabel, coefficients) -> ModelBundle:
    """The default bundle with ``group``'s model given other coefficients."""
    models = dict(default_bundle().models)
    models[group] = regression.GroupModel(group, models[group].variable_roles, coefficients)
    return dataclasses.replace(default_bundle(), models=models)


class TestLinearPredictionOverflow:
    """Every prediction that is not a finite float raises PredictionOverflow,
    without a numpy warning, in both model forms."""

    ML_MIX = Mixture(id="m", wc=0.53, c3a=6.0, c3s=40.0)   # routed to ML

    def calls(self, bundle, mix, group):
        return {
            "point": lambda: predict_expansion(mix, group, bundle, t=40.0),
            "curve": lambda: predict_curve(mix, bundle, horizon=40.0),
            "failure_time": lambda: predicted_failure_time(mix, bundle),
        }

    @pytest.mark.parametrize("call", ["point", "curve", "failure_time"])
    def test_overflowing_time_line(self, call):
        # the slope 1e308*0.53 + 1e308*6 is not a finite float
        bundle = _with_model(ML, [1e308, 1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictionOverflow, match=re.escape(
                    "mixture 'm': group ML time line inf*t + 0 overflows a float")):
                self.calls(bundle, self.ML_MIX, ML)[call]()

    @pytest.mark.parametrize("call", ["point", "curve"])
    def test_overflowing_value_on_a_finite_line(self, call):
        # slope 5.3e306: finite, but 40 years of it are not
        bundle = _with_model(ML, [1e307, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictionOverflow, match="group ML expansion inf overflows"):
                self.calls(bundle, self.ML_MIX, ML)[call]()
        assert predict_expansion(self.ML_MIX, ML, bundle, t=1.0) == 0.53e307
        assert predicted_failure_time(self.ML_MIX, bundle) == 0.5 / 0.53e307

    def test_failure_time_beyond_every_float(self):
        # a subnormal slope: (0.5 - 0) / (1e-310 * 0.43) is not a finite float
        bundle = _with_model(LL, [1e-310, 0.0])
        ll = Mixture(id="l", wc=0.43, c3a=4.0, c3s=60.0)
        assert classify_mixture(ll, bundle) is LL
        with pytest.raises(PredictionOverflow, match="mixture 'l': group LL failure time 0.5 / "):
            predicted_failure_time(ll, bundle)

    def test_log_linear_predictor_below_every_float(self):
        bundle = _with_model(HN, [0.0, -1e307, 0.0])
        hn = Mixture(id="h", wc=0.5, c3a=10.0, c3s=40.0, cement_content=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictionOverflow, match=re.escape("expansion exp(-inf)")):
                predict_curve(hn, bundle, horizon=40.0)
        assert predict_expansion(hn, HN, bundle, t=1.0) == 0.0


def _generator_mixture(group: GroupLabel, u: list[float]) -> Mixture:
    """A mixture inside ``generate_synthetic``'s region for ``group``, from uniforms in [0, 1]."""
    def span(x, lo, hi):
        return lo + x * (hi - lo)

    if group is HN:
        return Mixture(id="h", wc=span(u[0], 0.45, 0.65), c3a=span(u[1], 8.5, 12.0),
                       c3s=span(u[2], 35.0, 60.0), cement_content=span(u[3], 0.58, 0.615))
    if group is ML:
        wc = span(u[0], 0.50, 0.58)
        return Mixture(id="m", wc=wc, c3a=span(u[1], 3.0, 7.8),
                       c3s=233.6 - 387.3 * wc + span(u[2], 3.0, 15.0),
                       cement_content=span(u[3], 0.56, 0.62))
    wc = span(u[0], 0.40, 0.46)
    return Mixture(id="l", wc=wc, c3a=span(u[1], 3.0, 6.0),
                   c3s=max(15.0, 233.6 - 387.3 * wc - span(u[2], 3.0, 15.0)),
                   cement_content=span(u[3], 0.56, 0.62))


def _paper_equation(group: GroupLabel, mix: Mixture, t: np.ndarray) -> np.ndarray:
    if group is LL:
        return 0.0157 * (mix.wc * t) + 0.0305
    if group is ML:
        return 0.0293 * (mix.wc * t) + 0.000975 * (mix.c3a * t) + 0.0216
    return np.exp(11.20 * (mix.cement_content * t) - 5.68 * t - 3.66)


class TestGeneratorRegionProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        group=st.sampled_from([HN, ML, LL]),
        u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        step=st.sampled_from([0.25, 1.0, 2.5]),
    )
    def test_curve_matches_paper_and_failure_time_inverts(self, group, u, step):
        mix = _generator_mixture(group, u)
        series = predict_curve(mix, horizon=40.0, step=step)
        assert series.group == group.value
        expected = _paper_equation(group, mix, series.times)
        assert np.all(np.abs(series.values - expected) <= 1e-12 * np.abs(expected))
        t_fail = predicted_failure_time(mix)
        assert predict_expansion(mix, group, t=t_fail) == pytest.approx(0.5, rel=1e-12)


class TestPredictedFailureTime:
    def test_ll_closed_form(self):
        t = predicted_failure_time(Mixture(id="1000", wc=0.49), group=LL)
        assert t == pytest.approx((0.5 - 0.0305) / (0.0157 * 0.49), rel=1e-12)
        assert t == pytest.approx(61.03, abs=0.005)

    def test_ml_closed_form(self):
        t = predicted_failure_time(Mixture(id="1018", wc=0.481, c3a=5.1), group=ML)
        assert t == pytest.approx(25.09, abs=0.005)

    def test_hn_closed_form(self):
        t = predicted_failure_time(Mixture(id="1033", cement_content=0.589), group=HN)
        assert t == pytest.approx((math.log(0.5) + 3.66) / (11.20 * 0.589 - 5.68), rel=1e-12)
        assert t == pytest.approx(3.236, abs=0.001)

    def test_non_increasing_hn(self):
        # 11.20 * cc - 5.68 <= 0 for cc <= 0.5071: no failure ever predicted
        with pytest.raises(NonIncreasing):
            predicted_failure_time(Mixture(id="x", cement_content=0.45), group=HN)

    def test_already_failed(self):
        bundle = dataclasses.replace(default_bundle(), failure_threshold=0.02)
        with pytest.raises(AlreadyFailed):
            predicted_failure_time(Mixture(id="x", wc=0.49), bundle, group=LL)

    def test_inversion_consistency_across_groups(self):
        rng = np.random.default_rng(7)
        bundle = default_bundle()
        for _ in range(100):
            group = (HN, ML, LL)[int(rng.integers(3))]
            mix = Mixture(
                id="r",
                wc=rng.uniform(0.42, 0.6),
                c3a=rng.uniform(3.0, 12.0),
                cement_content=rng.uniform(0.55, 0.65),
            )
            t_fail = predicted_failure_time(mix, bundle, group=group)
            back = predict_expansion(mix, group, bundle, t_fail)
            assert back == pytest.approx(0.5, abs=1e-9)


def dataset_hash_oracle(dataset):
    """The b2 fingerprint built with ``struct.pack``, one mixture at a time."""
    records = sorted(dataset, key=lambda p: p[0].id)
    lengths, ids, masks, fields, counts, times, values = (bytearray() for _ in range(7))
    for mix, series in records:
        raw = mix.id.encode("utf-8")
        lengths += struct.pack("<Q", len(raw))
        ids += raw
        bits = 0
        for i, name in enumerate(MIXTURE_FIELDS):
            value = getattr(mix, name)
            if value is not None:
                bits |= 1 << i
            fields += struct.pack("<d", 0.0 if value is None else value)
        masks += struct.pack("<B", bits)
        counts += struct.pack("<Q", len(series.samples))
        for t, e in series.samples:
            times += struct.pack("<d", t)
            values += struct.pack("<d", e)
    h = hashlib.sha256(b"sulfexp-dataset-b2")
    for section in (struct.pack("<Q", len(records)), lengths, ids, masks, fields, counts,
                    times, values):
        h.update(section)
    return "b2:" + h.hexdigest()[:16]


def record(mid, samples=((0.0, 0.1), (1.0, 0.5)), **fields):
    return Mixture(id=mid, **fields), ExpansionSeries(mixture_id=mid, samples=samples)


class TestDatasetHash:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_framed_oracle(self, seed):
        pairs = generate_synthetic((5, 7, 5), noise=0.03, seed=seed).pairs
        assert dataset_hash(pairs) == dataset_hash_oracle(pairs)
        assert dataset_hash(pairs[::-1]) == dataset_hash(pairs)

    def test_matches_framed_oracle_at_the_edges(self):
        pairs = [
            (Mixture(id="z", wc=0.5), ExpansionSeries(mixture_id="z", samples=[[-0.0, -0.0]])),
            (Mixture(id="a\u00e9"), ExpansionSeries(mixture_id="a\u00e9", samples=())),
            (Mixture(id="m", c3a=1e-300, air=0.0), ExpansionSeries(
                mixture_id="m", samples=[[0.1, 1e300], [1e16, -5e-324]])),
        ]
        assert dataset_hash(pairs) == dataset_hash_oracle(pairs)

    def test_empty_dataset_is_stable(self):
        # the tag and N = 0; every other section is empty
        assert dataset_hash([]) == dataset_hash_oracle([]) == "b2:aa9805e7a8a286b6"

    def test_repeated_id_rejected_in_every_order(self):
        pairs = [record("a", wc=0.5), record("b"), record("a", wc=0.6)]
        for dataset in (pairs, pairs[::-1]):
            with pytest.raises(ValidationError, match="mixture id 'a' appears more than once"):
                dataset_hash(dataset)

    def test_unframed_collision_pair_differs(self):
        # joined without framing, both read "0a...0.55x..."
        first = [record("0a", ((0.0, 0.1), (1.0, 0.5)), wc=0.5), record("5x", wc=0.5)]
        second = [record("0a", ((0.0, 0.1), (1.0, 0.55)), wc=0.5), record("x", wc=0.5)]
        assert dataset_hash(first) != dataset_hash(second)

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(range(9)))
    def test_row_order_does_not_matter(self, order):
        pairs = generate_synthetic((3, 3, 3), noise=0.03, seed=5).pairs
        assert dataset_hash([pairs[i] for i in order]) == dataset_hash(pairs)

    def test_negative_zero_differs(self):
        assert dataset_hash([record("a", wc=0.5, air=0.0)]) != dataset_hash(
            [record("a", wc=0.5, air=-0.0)])
        assert dataset_hash([record("a", ((0.0, 0.0), (1.0, 0.5)))]) != dataset_hash(
            [record("a", ((0.0, -0.0), (1.0, 0.5)))])

    def test_absent_field_differs_from_present_zero(self):
        assert dataset_hash([record("a", wc=0.5)]) != dataset_hash(
            [record("a", wc=0.5, air=0.0)])

    @pytest.mark.parametrize("splits", [
        (("a1", "2"), ("a", "12"), ("a12",), ("a", "1", "2")),
        (("\u00e9", "\u00e9x"), ("\u00e9\u00e9", "x"), ("\u00e9\u00e9x",), ("e\u0301", "\u00e9x")),
    ])
    def test_ids_are_framed(self, splits):
        hashes = {dataset_hash([record(mid) for mid in ids]) for ids in splits}
        assert len(hashes) == len(splits)

    def test_sees_one_ulp(self):
        pairs = generate_synthetic((2, 2, 2), seed=4).pairs
        mix, series = pairs[3]
        values = series.values.copy()
        values[-1] = np.nextafter(values[-1], np.inf)
        moved = pairs[:3] + [(mix, ExpansionSeries(mixture_id=mix.id,
                                                   samples=np.array((series.times, values)).T))]
        assert dataset_hash(moved + pairs[4:]) != dataset_hash(pairs)

    def test_provenance_names_the_scheme(self):
        pairs = generate_synthetic((6, 8, 6), noise=0.0, seed=11).pairs
        bundle = fit_pipeline(pairs, PipelineConfig(seed=7))
        assert re.fullmatch(r"fitted data=b2:[0-9a-f]{16} seed=7", bundle.provenance)
        assert bundle.provenance.split()[1] == f"data={dataset_hash(pairs)}"


class TestFitPipeline:
    def test_noiseless_round_trip_small(self):
        ds = generate_synthetic((6, 8, 6), noise=0.0, seed=11)
        bundle = fit_pipeline(ds.pairs, PipelineConfig())
        assert np.abs(bundle.models[LL].coefficients - [0.0157, 0.0305]).max() <= 1e-8
        assert bundle.diagnostics.cluster_sizes == {HN: 6, ML: 8, LL: 6}
        assert all(bundle.diagnostics.assignments[m] is lab for m, lab in ds.labels.items())
        assert not bundle.partial
        assert bundle.provenance.startswith("fitted")

    def test_two_group_k2_partial(self):
        ds = generate_synthetic((6, 8, 0), noise=0.0, seed=11)
        bundle = fit_pipeline(ds.pairs, PipelineConfig(k=2))
        assert bundle.partial
        assert sorted(g.value for g in bundle.models) == ["HN", "ML"]
        with pytest.raises(ValidationError, match="no classification boundaries"):
            classify_mixture(ds.pairs[0][0], bundle)

    def test_single_group_k1_partial(self):
        ds = generate_synthetic((0, 0, 8), noise=0.0, seed=3)
        bundle = fit_pipeline(ds.pairs, PipelineConfig(k=1))
        assert bundle.partial
        assert bundle.boundary_first is None
        assert bundle.boundary_second is None
        assert len(bundle.models) == 1

    def test_constant_zero_series_surfaces_trend_error(self):
        pairs = []
        for i in range(4):
            mix = Mixture(id=f"z{i}", wc=0.5, c3a=5.0, c3s=50.0, cement_content=0.6)
            samples = tuple((float(t), 0.0) for t in range(0, 45, 5))
            pairs.append((mix, ExpansionSeries(mixture_id=mix.id, samples=samples)))
        with pytest.raises(NonPositiveTrend) as excinfo:
            fit_pipeline(pairs, PipelineConfig())
        assert "z0" in str(excinfo.value)
        assert "features" in str(excinfo.value)

    def test_too_small_cluster_is_an_error(self):
        # 2 archetypes only, k = 3: some cluster gets < 2 members
        ds = generate_synthetic((1, 8, 8), noise=0.0, seed=5)
        with pytest.raises(EmptyGroup):
            fit_pipeline(ds.pairs, PipelineConfig())

    def test_duplicate_mixture_id_is_rejected(self):
        # an LL record renamed after the first HN mixture must not be
        # regressed together with it under one id
        pairs = generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs
        mix, series = pairs[-1]
        renamed = (dataclasses.replace(mix, id="syn0001"),
                   ExpansionSeries(mixture_id="syn0001",
                                   samples=np.array((series.times, series.values)).T))
        with pytest.raises(ValidationError, match="'syn0001' appears more than once"):
            fit_pipeline(pairs[:-1] + [renamed])

    @settings(max_examples=12, deadline=None)
    @given(seed=st.sampled_from([0, 1, 2]), order=st.permutations(range(40)))
    def test_row_order_does_not_change_the_saved_bundle(self, tmp_path_factory, seed, order):
        pairs = generate_synthetic((12, 16, 12), noise=0.03, seed=seed).pairs
        path = tmp_path_factory.mktemp("bundles") / "bundle.json"
        save_bundle(fit_pipeline(pairs), path)
        expected = path.read_bytes()
        shuffled = fit_pipeline([pairs[i] for i in order])
        save_bundle(shuffled, path)
        assert path.read_bytes() == expected
        assert list(shuffled.diagnostics.assignments) == [mix.id for mix, _ in pairs]

    def test_mean_failure_times_name_the_clusters(self):
        pairs = generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs
        diagnostics = fit_pipeline(pairs).diagnostics
        t_fail = {mix.id: cluster_features(smooth(series))[0] for mix, series in pairs}
        means = diagnostics.mean_failure_times
        for label in (HN, ML, LL):
            members = [t_fail[m] for m, group in diagnostics.assignments.items() if group is label]
            assert means[label] == np.mean(members)
        assert means[HN] < means[ML] < means[LL]

    def test_diagnostics_carry_every_kmeans_restart(self, monkeypatch):
        results = []
        kmeans = clustering.kmeans
        monkeypatch.setattr(
            clustering, "kmeans", lambda *a, **kw: results.append(kmeans(*a, **kw)) or results[-1],
        )
        pairs = generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs
        diagnostics = fit_pipeline(pairs).diagnostics
        (km,) = results
        assert len(diagnostics.kmeans_restart_iterations) == clustering.DEFAULT_RESTARTS
        assert diagnostics.kmeans_restart_iterations == km.restart_iterations
        assert diagnostics.kmeans_restart_converged == km.restart_converged
        assert km.iterations in km.restart_iterations and all(km.restart_converged)

    def test_uncertified_svm_raises_no_convergence(self, monkeypatch):
        # stop the descent at its start point, uncertified
        monkeypatch.setattr(svm, "_polish", lambda X, y, C, z: (z, False))
        with pytest.raises(NoConvergence) as excinfo:
            fit_pipeline(generate_synthetic((6, 8, 6), noise=0.0, seed=11).pairs)
        assert str(excinfo.value).startswith("boundaries: svm training certified no optimum")
        assert "objective" in excinfo.value.diagnostics

    def test_deterministic(self):
        ds = generate_synthetic((6, 8, 6), noise=0.02, seed=9)
        b1 = fit_pipeline(ds.pairs, PipelineConfig(seed=5))
        b2 = fit_pipeline(ds.pairs, PipelineConfig(seed=5))
        assert b1 == b2

    def test_data_driven_variables_mode(self):
        ds = generate_synthetic((6, 8, 6), noise=0.0, seed=11)
        bundle = fit_pipeline(ds.pairs, PipelineConfig(data_driven_variables=True))
        for model in bundle.models.values():
            assert model.variable_roles[-1] == "const"
            assert len(model.variable_roles) >= 2


def replace_series(pairs, samples_by_id):
    return [(mix, ExpansionSeries(mixture_id=mix.id, samples=samples_by_id[mix.id]))
            if mix.id in samples_by_id else (mix, series) for mix, series in pairs]


class TestBlockFit:
    """The fit's stages read one block of the records in id order."""

    pairs = generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs

    def test_features_error_names_every_flat_series(self):
        flat = [(float(t), 0.0) for t in range(0, 45, 5)]
        pairs = replace_series(self.pairs, {"syn0021": flat, "syn0004": flat})
        with pytest.raises(NonPositiveTrend) as excinfo:
            fit_pipeline(pairs[::-1])
        assert str(excinfo.value) == (
            "features: series 'syn0004' never reaches 0.5 and its terminal secant slope 0 "
            "admits no finite crossing (and 1 more: 'syn0021')")

    def test_smoothing_error_names_every_short_series(self):
        short = [(0.0, 0.1), (5.0, 0.2)]
        pairs = replace_series(self.pairs, {"syn0006": short, "syn0021": short,
                                            "syn0030": short[:1]})
        with pytest.raises(TooFewSamples) as excinfo:
            fit_pipeline(pairs)
        assert str(excinfo.value) == (
            "smoothing: series 'syn0006' has 2 samples; smoothing needs >= 3 "
            "(and 2 more: 'syn0021', 'syn0030')")

    def test_boundary_points_name_the_first_missing_field(self):
        pairs = [(dataclasses.replace(mix, c3a=None), series) if mix.id in ("syn0003", "syn0009")
                 else (mix, series) for mix, series in self.pairs]
        with pytest.raises(MissingField) as excinfo:
            fit_pipeline(pairs)
        assert str(excinfo.value) == (
            "boundaries: mixture 'syn0003' is missing field 'c3a' (and 1 more: 'syn0009')")

    def test_empty_dataset_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^the dataset holds no records$"):
                fit_pipeline([])

    def test_overflowing_series_is_rejected_without_a_warning(self):
        pairs = replace_series(self.pairs, {"syn0007": [(0.0, 1e308), (1.0, -1e308),
                                                        (2.0, 1e308)]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as excinfo:
                fit_pipeline(pairs)
        assert str(excinfo.value) == "smoothing: series 'syn0007' has non-finite samples"

    def test_no_mixture_field_is_read_record_by_record(self, monkeypatch):
        def never(self, *names):
            raise AssertionError("Mixture.require called during a fit")

        expected = fit_pipeline(self.pairs)
        monkeypatch.setattr(Mixture, "require", never)
        assert fit_pipeline(self.pairs) == expected

    def test_stages_call_the_kernels_through_their_modules(self, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(data, *args, **kwargs):
                calls.append((name, type(data).__name__, len(data)))
                return real(data, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((curves, "smooth"), (curves, "cluster_features"),
                             (regression, "fit_group_model"), (regression, "design_rows")):
            spy(module, name)
        fit_pipeline(self.pairs)
        samples = sum(len(series) for _, series in self.pairs)
        assert calls[:2] == [("smooth", "SeriesBlock", samples),
                             ("cluster_features", "SeriesBlock", samples)]
        assert [name for name, _, _ in calls[2:]] == ["fit_group_model", "design_rows"] * 3
        assert sum(n for name, _, n in calls if name == "design_rows") == samples

    def test_fingerprint_reads_the_block(self):
        bundle = fit_pipeline(self.pairs[::-1])
        assert bundle.provenance.split()[1] == f"data={dataset_hash(self.pairs)}"
        assert dataset_hash(self.pairs) == dataset_hash_oracle(self.pairs)


class TestPipelineConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
        ("seed", True, "seed must be a non-negative integer, got True"),
        ("box_constraint", math.inf, "box constraint must be a finite positive number, got inf"),
        ("box_constraint", math.nan, "box constraint must be a finite positive number, got nan"),
        ("box_constraint", 0.0, "box constraint must be a finite positive number, got 0.0"),
        ("box_constraint", "5", "box constraint must be a finite positive number, got '5'"),
        ("k", 0, "k must be between 1 and 3"),
        ("k", 4, "k must be between 1 and 3"),
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("k", True, "k must be an integer, got True"),
        ("alpha", 1.5, "alpha must be in [0, 1], got 1.5"),
        ("alpha", math.nan, "alpha must be in [0, 1], got nan"),
        ("alpha", "0.3", "alpha must be in [0, 1], got '0.3'"),
        ("threshold", 0.0, "failure_threshold must be a finite positive number, got 0.0"),
        ("threshold", math.inf, "failure_threshold must be a finite positive number, got inf"),
    ])
    def test_rejects_what_a_stage_would(self, field, value, message):
        with pytest.raises(ValidationError) as excinfo:
            PipelineConfig(**{field: value})
        assert str(excinfo.value) == message

    def test_replace_validates_too(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(PipelineConfig(), seed=-3)

    def test_defaults_and_edges_accepted(self):
        PipelineConfig()
        PipelineConfig(seed=0, alpha=0.0, k=1, box_constraint=1e-9)
        PipelineConfig(alpha=1.0, k=3, threshold=1e-6)


#: data-driven variable roles of the golden datasets (3 % noise), HN/ML/LL,
#: as the power-iteration PCA chose them; one eigendecomposition must agree
DATA_DRIVEN_ROLES = {
    ((12, 16, 12), 0): (("C4AF*T", "C3S*T", "WC*T"), ("C3S*T", "CC*T", "C3A*T"),
                        ("WC*T", "AIR*T", "C4AF*T")),
    ((12, 16, 12), 1): (("AIR*T", "C2S*T", "C4AF*T"), ("C3S*T", "C3A*T", "C2S*T"),
                        ("C3S*T", "AIR*T", "C2S*T")),
    ((12, 16, 12), 2): (("C3A*T", "C2S*T", "WC*T"), ("C3S*T", "C4AF*T", "CC*T"),
                        ("WC*T", "AIR*T", "C3A*T")),
    ((12, 16, 12), 3): (("C3S*T", "C2S*T", "WC*T"), ("C3S*T", "C4AF*T", "CC*T"),
                        ("WC*T", "CC*T", "C3A*T")),
    ((120, 160, 120), 0): (("WC*T", "CC*T", "C3S*T"), ("C3S*T", "AIR*T", "CC*T"),
                           ("C3S*T", "C4AF*T", "CC*T")),
}


@pytest.mark.parametrize("counts,seed", list(DATA_DRIVEN_ROLES))
def test_data_driven_roles_of_golden_datasets(counts, seed):
    pairs = generate_synthetic(counts, noise=0.03, seed=seed).pairs
    bundle = fit_pipeline(pairs, PipelineConfig(data_driven_variables=True))
    roles = tuple(bundle.models[label].variable_roles for label in (HN, ML, LL))
    assert roles == tuple(r + ("const",) for r in DATA_DRIVEN_ROLES[(counts, seed)])


def eager_screen(pairs, assignments):
    """The per-group screen as a fit ran it before it was deferred: center and
    scale each group's fields, take the top components, pick their columns."""
    fields = {mix.id: [np.nan if getattr(mix, f) is None else getattr(mix, f)
                       for f in MIXTURE_FIELDS] for mix, _ in pairs}
    picks = {}
    for label in set(assignments.values()):
        matrix = np.array([fields[mid] for mid in sorted(assignments) if assignments[mid] is label])
        if np.isnan(matrix).any():
            picks[label] = []
            continue
        m = min(pca.DEFAULT_COMPONENTS, matrix.shape[0] - 1, matrix.shape[1])
        centered, _, _ = pca.center_and_scale(matrix)
        picks[label] = pca.select_dominant_variables(pca.principal_components(centered, m), m)
    return picks


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


#: every golden entry, and the 2-record LL group of (12,16,12)@22 at 10 % noise,
#: whose one component loads all seven standardized columns alike in exact arithmetic
SCREEN_CASES = [(counts, seed, 0.03, config) for counts, seed, config in regen_golden.ENTRIES] + [
    ((12, 16, 12), 22, 0.1, "default"), ((12, 16, 12), 22, 0.1, "data-driven")]


class TestDeferredScreen:
    def test_default_fit_runs_no_pca(self, monkeypatch):
        calls = count_calls(monkeypatch, pca, "principal_components")
        bundle = fit_pipeline(generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs)
        assert calls == []
        assert len(bundle.diagnostics.pca_selected) == 3
        assert len(calls) == 3
        bundle.diagnostics.pca_selected
        assert len(calls) == 3  # read once, then kept

    def test_data_driven_fit_screens_in_the_fit(self, monkeypatch):
        calls = count_calls(monkeypatch, pca, "principal_components")
        fit_pipeline(generate_synthetic((12, 16, 12), noise=0.03, seed=0).pairs,
                     PipelineConfig(data_driven_variables=True))
        assert len(calls) == 3

    @pytest.mark.parametrize("counts,seed,noise,config", SCREEN_CASES, ids=[
        f"{regen_golden.dataset_key(counts, seed, config)}~{noise}"
        for counts, seed, noise, config in SCREEN_CASES])
    def test_picks_equal_the_eager_screen(self, counts, seed, noise, config):
        pairs = generate_synthetic(counts, noise=noise, seed=seed).pairs
        diagnostics = fit_pipeline(pairs, PipelineConfig(**regen_golden.CONFIGS[config])).diagnostics
        expected = eager_screen(pairs, diagnostics.assignments)
        assert diagnostics.pca_selected == expected

    def test_rounding_level_spread_screens(self):
        # one HN record's c2s one float above the others': the column's spread
        # is rounding, so the z-score leaves it constant
        ds = generate_synthetic((12, 16, 12), noise=0.03, seed=0)
        hn = sorted(mid for mid, label in ds.labels.items() if label is HN)
        pairs = [(dataclasses.replace(mix, c2s=np.nextafter(50.0, 100.0) if mix.id == hn[0] else 50.0)
                  if mix.id in hn else mix, series) for mix, series in ds.pairs]
        driven = fit_pipeline(pairs, PipelineConfig(data_driven_variables=True))
        bundle = fit_pipeline(pairs)
        assert bundle.boundary_first == fit_pipeline(ds.pairs).boundary_first
        picks = bundle.diagnostics.pca_selected
        assert picks == driven.diagnostics.pca_selected
        assert picks == eager_screen(pairs, bundle.diagnostics.assignments)
        assert len(picks[HN]) == 3


def test_bundle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the k = 2 ML group of this fit has 10 360 regression rows, enough for
    # OpenBLAS to split a dot product over threads
    script = (
        "import sys\n"
        "from sulfexp import PipelineConfig, fit_pipeline, generate_synthetic, save_bundle\n"
        "pairs = generate_synthetic((390, 520, 390), noise=0.03, seed=0).pairs\n"
        "save_bundle(fit_pipeline(pairs, PipelineConfig(k=2)), sys.argv[1])\n"
    )
    src = str(Path(sulfexp.__file__).resolve().parents[1])
    saved = []
    for threads in ("1", "2"):
        path = tmp_path / f"bundle-{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=120)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


class TestValidateHoldout:
    def holdout(self, n_hn=4, n_ml=4, n_ll=7, seed=21):
        ds = generate_synthetic((n_hn, n_ml, n_ll), noise=0.0, seed=seed)
        return ds

    def test_perfect_agreement(self):
        ds = self.holdout()
        report = validate_holdout(default_bundle(), ds.pairs, ds.labels)
        assert report.agreement == 1.0

    def test_planted_disagreements_bookkeeping(self):
        ds = self.holdout()
        pairs = list(ds.pairs)
        # push three LL mixtures across the first boundary: reference stays LL
        flipped = 0
        for i, (mix, series) in enumerate(pairs):
            if ds.labels[mix.id] is LL and flipped < 3:
                pairs[i] = (dataclasses.replace(mix, c3a=9.5), series)
                flipped += 1
        report = validate_holdout(default_bundle(), pairs, ds.labels)
        assert flipped == 3
        assert report.agreement == pytest.approx(12 / 15)
        assert report.confusion[(LL, HN)] == 3

    def test_all_mislabeled(self):
        ds = self.holdout()
        wrong = {mid: (HN if lab is not HN else ML) for mid, lab in ds.labels.items()}
        report = validate_holdout(default_bundle(), ds.pairs, wrong)
        assert report.agreement == 0.0

    def test_empty_holdout(self):
        with pytest.raises(ValidationError):
            validate_holdout(default_bundle(), [], {})


class TestRefitR2Report:
    def test_zero_delta_when_boundaries_match_clustering(self):
        ds = generate_synthetic((6, 8, 6), noise=0.0, seed=11)
        bundle = fit_pipeline(ds.pairs, PipelineConfig())
        report = refit_r2_report(bundle, ds.pairs)
        for refit in report.values():
            assert refit.delta == pytest.approx(0.0, abs=1e-12)

    def test_small_delta_with_one_planted_misclassification(self):
        ds = generate_synthetic((6, 16, 6), noise=0.02, seed=13)
        bundle = fit_pipeline(ds.pairs, PipelineConfig())
        pairs = list(ds.pairs)
        for i, (mix, series) in enumerate(pairs):
            if ds.labels[mix.id] is LL:
                # push one slow mixture across the second boundary into ML;
                # its linear series only mildly dilutes the pooled ML fit
                pairs[i] = (dataclasses.replace(mix, c3s=233.6 - 387.3 * mix.wc + 5.0), series)
                break
        report = refit_r2_report(bundle, pairs)
        for refit in report.values():
            assert abs(refit.delta) <= 0.05

    def test_empty_reassigned_group(self):
        ds = generate_synthetic((6, 8, 6), noise=0.0, seed=11)
        bundle = fit_pipeline(ds.pairs, PipelineConfig())
        # force everything to the HN side of the simplified first boundary
        broken = dataclasses.replace(
            bundle,
            boundary_first_simplified=dataclasses.replace(
                bundle.boundary_first_simplified, bias=0.0),
        )
        with pytest.raises(EmptyGroup):
            refit_r2_report(broken, ds.pairs)

    def test_requires_fitted_bundle(self):
        ds = generate_synthetic((3, 3, 3), noise=0.0, seed=2)
        with pytest.raises(ValidationError):
            refit_r2_report(default_bundle(), ds.pairs)
