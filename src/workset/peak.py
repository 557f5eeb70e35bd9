"""Streaming peak detection with a dispersion-adaptive threshold.

The detector keeps an exponential moving average ``mean`` and moving
variance ``var`` of the sample stream. For each new sample x (after the
first, which only seeds the statistics) it computes

    distance   = |x - mean|
    dispersion = var / mean          (0 when mean is ~0)
    c          = 1 - exp(-dispersion / 2)
    threshold  = c * g * var + (1 - c) * g * mean

and flags a peak iff distance > threshold. The dispersion (the
variance-to-mean ratio, the classic index of dispersion) steers the
threshold between the two natural scales: for a quiet signal it leans
on the mean, for a bursty one on the variance. ``g`` scales overall
sensitivity.

Statistics are then advanced with

    mean' = alpha * x" + (1 - alpha) * mean
    var'  = alpha * (x" - mean)**2 + (1 - alpha) * var

where x" is the raw sample normally, but while a peak is flagged the
damped value x" = phi * x + (1 - phi) * mean is used instead, so a
burst does not drag the baseline up and mask peaks that follow it.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

from .trace import Struct, check_type, show_int

# mean magnitudes at or below this count as zero, which makes the dispersion 0
_MEAN_EPS = 1e-9


class PeakParams(Struct):
    """Detector knobs. Defaults work well for working set size series."""

    __match_args__ = ("alpha", "phi", "g")
    alpha = 0.3  # moving average decay
    phi = 0.2  # damping applied while a peak is active
    g = 1.0  # threshold sensitivity scale

    def __init__(self, alpha: float = alpha, phi: float = phi, g: float = g) -> None:
        self._set_fields(alpha, phi, g)
        for name in self.__match_args__:
            check_type(name, getattr(self, name), (int, float), "a real number")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {show_int(self.alpha)}")
        if not 0.0 < self.phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {show_int(self.phi)}")
        if not self.g > 0.0:
            raise ValueError(f"g must be > 0, got {show_int(self.g)}")
        # an infinite g turns detection off, and an int past the float range
        # fails only when the detector multiplies by it, after the pass
        if self.g > sys.float_info.max:
            raise ValueError(f"g must be finite, got {show_int(self.g)}")


class PeakVerdict(Struct):
    """Outcome of feeding one sample to the detector."""

    __slots__ = __match_args__ = ("is_peak", "distance", "threshold", "dispersion")

    def __init__(self, is_peak: bool, distance: float, threshold: float,
                 dispersion: float) -> None:
        self.is_peak = is_peak
        self.distance = distance  # |x - mean| before the update
        self.threshold = threshold  # the adaptive threshold the distance was held against
        self.dispersion = dispersion  # variance-to-mean ratio used to blend the threshold


class PeakDetector:
    """Mutable detector state; feed samples through update().

    At the default g = 1 a zero sample fires whenever 0 < var < mean:
    its distance is the mean itself, and the threshold blends var and
    mean. A fired zero's damped update shrinks the mean by only
    alpha * phi (6% at the defaults) while var falls faster, so the
    zeros after a short burst can be flagged one after another up to
    the next burst. The step workload sampled at tau = 50, every = 10
    flags 3,906 of its 4,100 data samples this way, 3,705 of them
    zeros; at tau = every = 1000 only the step itself fires.
    """

    def __init__(self, params: PeakParams | None = None):
        self.params = params if params is not None else PeakParams()
        self.mean = 0.0
        self.var = 0.0
        self.initialized = False

    def update(self, x: float) -> PeakVerdict:
        """Advance the detector by one sample and judge it."""
        if not self.initialized:
            self.mean = float(x)
            self.var = 0.0
            self.initialized = True
            return PeakVerdict(False, 0.0, 0.0, 0.0)
        p = self.params
        mean = self.mean
        distance = abs(x - mean)
        dispersion = self.var / mean if mean > _MEAN_EPS else 0.0
        c = 1.0 - math.exp(-dispersion / 2.0)
        threshold = c * p.g * self.var + (1.0 - c) * p.g * mean
        is_peak = distance > threshold
        value = p.phi * x + (1.0 - p.phi) * mean if is_peak else float(x)
        self.mean = p.alpha * value + (1.0 - p.alpha) * mean
        self.var = p.alpha * (value - mean) ** 2 + (1.0 - p.alpha) * self.var
        return PeakVerdict(is_peak, distance, threshold, dispersion)


def detect_series(
    values: Iterable[float], params: PeakParams | None = None
) -> list[PeakVerdict]:
    """Run a fresh detector over a whole series and collect the verdicts."""
    det = PeakDetector(params)
    return [det.update(x) for x in values]
