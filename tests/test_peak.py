"""Peak detector vs the scalar reference in oracles.py, plus knob and
invariant checks."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_peak_series
from workset.engine import AnalysisConfig, run_analysis
from workset.peak import PeakDetector, PeakParams, PeakVerdict, detect_series
from workset.workloads import StepConfig, gen_step

STEP_SERIES = [10] * 20 + [60] + [10] * 20


def run_detector(values, **kw):
    det = PeakDetector(PeakParams(**kw)) if kw else PeakDetector()
    return det, [det.update(x) for x in values]


def test_first_sample_seeds_statistics_without_flagging():
    det = PeakDetector()
    assert not det.initialized
    verdict = det.update(42)
    assert verdict == PeakVerdict(False, 0.0, 0.0, 0.0)
    assert det.initialized
    assert det.mean == 42.0
    assert det.var == 0.0


def test_step_fixture_golden_vector():
    # frozen from the reference implementation: exactly the step sample
    # is flagged, with these exact intermediate values
    det, verdicts = run_detector(STEP_SERIES)
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
    det = PeakDetector()
    verdicts = [det.update(x) for x in STEP_SERIES[:21]]
    assert det.mean == pytest.approx(13.0, rel=1e-12)
    assert det.var == pytest.approx(30.0, rel=1e-12)
    assert verdicts[-1].is_peak


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
    det = PeakDetector()
    for s in samples:
        mean = det.mean
        v = det.update(s.wss_data)
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
    det = PeakDetector(PeakParams(**kw)) if kw else PeakDetector()
    for i, (x, exp) in enumerate(zip(values, expected)):
        v = det.update(x)
        is_peak, distance, threshold, dispersion, mean, var = exp
        assert v.is_peak == is_peak, f"verdict diverges at sample {i}"
        assert v.distance == pytest.approx(distance, rel=1e-12, abs=1e-12)
        assert v.threshold == pytest.approx(threshold, rel=1e-12, abs=1e-12)
        assert v.dispersion == pytest.approx(dispersion, rel=1e-12, abs=1e-12)
        assert det.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert det.var == pytest.approx(var, rel=1e-12, abs=1e-12)


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


@given(st.integers(0, 10**6), st.integers(2, 60))
def test_constant_series_never_flags(level, n):
    _, verdicts = run_detector([level] * n)
    assert not any(v.is_peak for v in verdicts)


@given(
    st.lists(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), max_size=80)
)
def test_outputs_always_finite(values):
    det, verdicts = run_detector(values)
    for v in verdicts:
        assert math.isfinite(v.distance)
        assert math.isfinite(v.threshold)
        assert math.isfinite(v.dispersion)
    assert math.isfinite(det.mean)
    assert math.isfinite(det.var)
    assert det.var >= 0.0


@given(
    st.lists(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=80)
)
def test_filtered_update_never_overshoots_raw(values):
    # while a peak is flagged the damped value must stay between the
    # old mean and the raw sample
    det = PeakDetector()
    params = det.params
    for x in values:
        if not det.initialized:
            det.update(x)
            continue
        mean_before = det.mean
        v = det.update(x)
        if v.is_peak:
            damped = params.phi * x + (1.0 - params.phi) * mean_before
            assert abs(damped - mean_before) <= abs(x - mean_before) + 1e-12


def test_near_zero_mean_disables_dispersion_term():
    det = PeakDetector()
    det.update(0)
    v = det.update(5)
    assert v.dispersion == 0.0
    assert v.threshold == 0.0  # zero mean, zero var: any nonzero distance flags
    assert v.is_peak


def test_detect_series_equals_manual_fold():
    series = STEP_SERIES
    folded = detect_series(series)
    _, manual = run_detector(series)
    assert folded == manual


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
