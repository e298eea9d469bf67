"""The reference-speed scale of the end-to-end times."""

import pytest

import calibration
from calibration import Calibrator


def test_scale_is_reference_over_the_median_sample():
    calib = Calibrator()
    calib.samples = [0.02, 0.01, 0.04]
    assert calib.scale() == pytest.approx(calibration.REFERENCE_S / 0.02)


def test_each_sample_times_the_work_once():
    calib = Calibrator()
    calib.sample(3)
    assert len(calib.samples) == 3
    assert all(t > 0.0 for t in calib.samples)
