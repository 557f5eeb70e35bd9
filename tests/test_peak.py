"""Peak detection vs the scalar reference in oracles.py, plus knob and
invariant checks. The statistics after a sample are read off the next
sample's verdict: distance == |x - mean| and dispersion == var / mean."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import make_random_events, reference_peak_series
from workset.engine import AnalysisConfig, run_analysis
from workset.peak import PeakParams, PeakVerdict, detect_series
from workset.workloads import StepConfig, gen_step

STEP_SERIES = [10] * 20 + [60] + [10] * 20


def run_detector(values, **kw):
    return detect_series(values, PeakParams(**kw) if kw else None)


def test_first_sample_seeds_statistics_without_flagging():
    verdict, after = detect_series([42, 50])
    assert verdict == PeakVerdict(False, 0.0, 0.0, 0.0)
    # mean 42 and var 0: the next sample is judged against them
    assert after.distance == 8.0
    assert after.dispersion == 0.0
    assert after.threshold == 42.0


def test_step_fixture_golden_vector():
    # frozen from the reference implementation: exactly the step sample
    # is flagged, with these exact intermediate values
    verdicts = run_detector(STEP_SERIES)
    flags = [v.is_peak for v in verdicts]
    assert flags == [False] * 20 + [True] + [False] * 20
    step = verdicts[20]
    assert step.distance == 50.0
    assert step.threshold == 10.0
    assert step.dispersion == 0.0
    after = verdicts[21]
    assert not after.is_peak
    assert after.distance == 3.0
    assert after.threshold == pytest.approx(24.637838331137885, rel=1e-12)
    assert after.dispersion == pytest.approx(2.3076923076923075, rel=1e-12)


def test_step_fixture_mean_var_after_peak():
    # damped update: x" = 0.2*60 + 0.8*10 = 20, so mean 13, var 30
    x = 12
    verdicts = detect_series([*STEP_SERIES[:21], x])
    assert verdicts[-1].distance == pytest.approx(abs(x - 13.0), rel=1e-12)
    assert verdicts[-1].dispersion == pytest.approx(30.0 / 13.0, rel=1e-12)
    assert verdicts[-2].is_peak


def test_zeros_after_a_burst_fire_one_after_another():
    # sampled finer than the step workload's intervals, the data series
    # is mostly zeros between short bursts. At x = 0 the distance is the
    # mean, and a flagged zero's damped update shrinks the mean slowly,
    # so the zeros keep firing while var stays below the mean: the rule,
    # pinned here as it stands
    res = run_analysis(gen_step(StepConfig()),
                       AnalysisConfig(tau=50, every=10, peak_detect=True))
    samples = list(res.samples)
    fired = [s for s in samples if s.peak_data]
    assert (len(samples), len(fired)) == (4100, 3906)
    assert sum(s.wss_data == 0 for s in fired) == 3705
    data = [s.wss_data for s in samples]
    # the statistics after each sample, the next one's mean
    means = [None] + [mean for *_, mean, _ in reference_peak_series(data)]
    for s, v, mean in zip(samples, detect_series(data), means):
        assert v.is_peak == s.peak_data
        if v.is_peak and s.wss_data == 0:
            assert v.distance == mean
            assert v.distance > v.threshold


def test_one_sample_per_step_interval_fires_only_on_the_step():
    res = run_analysis(gen_step(StepConfig()),
                       AnalysisConfig(tau=1000, every=1000, peak_detect=True))
    assert [s.t for s in res.samples if s.peak_insn or s.peak_data] == [21000]


def assert_matches_reference(values, **kw):
    expected = reference_peak_series(values, **kw)
    # a probe sample after the series reads the last sample's statistics
    probe = [*values, 0.0]
    verdicts = run_detector(probe, **kw)
    for i, (x, exp) in enumerate(zip(values, expected)):
        v, after = verdicts[i], verdicts[i + 1]
        is_peak, distance, threshold, dispersion, mean, var = exp
        assert v.is_peak == is_peak, f"verdict diverges at sample {i}"
        assert v.distance == pytest.approx(distance, rel=1e-12, abs=1e-12)
        assert v.threshold == pytest.approx(threshold, rel=1e-12, abs=1e-12)
        assert v.dispersion == pytest.approx(dispersion, rel=1e-12, abs=1e-12)
        assert after.distance == pytest.approx(abs(probe[i + 1] - mean), rel=1e-12, abs=1e-12)
        assert after.dispersion == pytest.approx(var / mean if mean > 1e-9 else 0.0,
                                                 rel=1e-12, abs=1e-12)


def test_matches_reference_on_constant_series():
    assert_matches_reference([7] * 50)
    assert_matches_reference([0] * 50)


def test_matches_reference_on_step_series():
    assert_matches_reference(STEP_SERIES)


def test_matches_reference_on_random_walk():
    rng = random.Random(1234)
    x = 50.0
    series = []
    for _ in range(1000):
        x = max(0.0, x + rng.uniform(-5, 5) + (rng.random() < 0.01) * 80)
        series.append(x)
    assert_matches_reference(series)


def test_matches_reference_with_nondefault_params():
    rng = random.Random(99)
    series = [rng.randrange(200) for _ in range(300)]
    assert_matches_reference(series, alpha=0.9, phi=0.05, g=2.5)


@given(
    st.lists(st.one_of(st.integers(0, 10**6), st.floats(-1e9, 1e9)), max_size=80),
    st.floats(0, 1, exclude_min=True),
    st.floats(0, 1, exclude_min=True),
    st.floats(0, 1e6, exclude_min=True),
)
def test_matches_reference_on_any_series_and_knobs(values, alpha, phi, g):
    verdicts = detect_series(values, PeakParams(alpha=alpha, phi=phi, g=g))
    expected = reference_peak_series(values, alpha=alpha, phi=phi, g=g)
    assert len(verdicts) == len(expected)
    for v, (is_peak, *fields, _, _) in zip(verdicts, expected):
        assert v.is_peak == is_peak
        assert [v.distance, v.threshold, v.dispersion] == pytest.approx(
            fields, rel=1e-12, abs=1e-12)


def test_the_analysis_builds_no_verdict(monkeypatch):
    # the post-pass reads only which samples fired: no PeakVerdict per
    # sample and stream, in the combined scope or in a thread's
    built = []
    init = PeakVerdict.__init__

    def counted(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(PeakVerdict, "__init__", counted)
    events = make_random_events(random.Random(5), 3000, threads=(0, 1, 2))
    cfg = AnalysisConfig(tau=29, every=2, per_thread=True, peak_detect=True, peak_g=0.2)
    res = run_analysis(events, cfg)
    assert res.annotations
    assert all(scope.annotations for scope in res.threads.values())
    assert built == []
    detect_series([1, 2])
    assert len(built) == 2


@given(st.integers(0, 10**6), st.integers(2, 60))
def test_constant_series_never_flags(level, n):
    verdicts = run_detector([level] * n)
    assert not any(v.is_peak for v in verdicts)


@given(
    st.lists(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), max_size=80)
)
def test_outputs_always_finite(values):
    # a zero probe after the series: its distance is the last mean, its
    # dispersion the last var over that mean
    verdicts = run_detector([*values, 0.0])
    for v in verdicts:
        assert math.isfinite(v.distance)
        assert math.isfinite(v.threshold)
        assert math.isfinite(v.dispersion)
        assert v.dispersion >= 0.0


@given(
    st.lists(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=80)
)
def test_filtered_update_never_overshoots_raw(values):
    # while a peak is flagged the damped value must stay between the
    # old mean and the raw sample
    params = PeakParams()
    verdicts = detect_series(values)
    for i, (x, v) in enumerate(zip(values[1:], verdicts[1:]), 1):
        # the mean before sample i, read off a zero probe in its place
        # (the series is non-negative, and so is the mean)
        mean_before = detect_series([*values[:i], 0.0])[-1].distance
        assert v.distance == abs(x - mean_before)
        if v.is_peak:
            damped = params.phi * x + (1.0 - params.phi) * mean_before
            assert abs(damped - mean_before) <= abs(x - mean_before) + 1e-12


def test_near_zero_mean_disables_dispersion_term():
    _, v = detect_series([0, 5])
    assert v.dispersion == 0.0
    assert v.threshold == 0.0  # zero mean, zero var: any nonzero distance flags
    assert v.is_peak


def test_detect_series_equals_manual_fold():
    # a fold of the scalar reference does the same arithmetic
    series = STEP_SERIES
    manual = [PeakVerdict(*exp[:4]) for exp in reference_peak_series(series)]
    assert detect_series(series) == manual


def test_detect_series_empty():
    assert detect_series([]) == []


def test_param_validation():
    with pytest.raises(ValueError):
        PeakParams(alpha=0.0)
    with pytest.raises(ValueError):
        PeakParams(alpha=1.5)
    with pytest.raises(ValueError):
        PeakParams(phi=0.0)
    with pytest.raises(ValueError):
        PeakParams(g=0.0)
    with pytest.raises(ValueError):
        PeakParams(g=-1.0)


def test_determinism():
    rng = random.Random(7)
    series = [rng.randrange(100) for _ in range(200)]
    assert detect_series(series) == detect_series(series)
