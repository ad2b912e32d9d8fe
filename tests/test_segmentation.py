"""R-peak detection, cycle cutting, resampling."""

import functools
import warnings

import numpy as np
import pytest

from helpers import DEFAULT_GAIN, make_jittered_record
from ecgdyn.errors import NoRhythmError
from ecgdyn.integrate import beat_grid
from ecgdyn.leads import FREE_LEADS, LEAD_NAMES, synthesize_heartbeat
from ecgdyn.model import RhythmParams
from ecgdyn.params import default_eta_for_lead
from ecgdyn.segmentation import (Record, _classify, detect_r_peaks, resample_cycle,
                                 segment_record)


class TestResample:
    def test_identity_when_lengths_match(self):
        rng = np.random.default_rng(0)
        seg = rng.standard_normal(128)
        assert np.array_equal(resample_cycle(seg, 128), seg)

    def test_linear_ramp_exact(self):
        ramp = np.linspace(0.0, 1.0, 100)
        for target in (50, 100, 137, 512):
            out = resample_cycle(ramp, target)
            expect = np.linspace(0.0, 1.0, target)
            assert np.allclose(out, expect, rtol=0, atol=1e-14)
            assert out[0] == 0.0 and out[-1] == 1.0

    def test_sine_reconstruction(self):
        # 5 Hz sine sampled with 400 points over one second
        t_in = np.linspace(0.0, 1.0, 400)
        seg = np.sin(2 * np.pi * 5.0 * t_in)
        out = resample_cycle(seg, 512)
        t_out = np.linspace(0.0, 1.0, 512)
        assert np.max(np.abs(out - np.sin(2 * np.pi * 5.0 * t_out))) <= 1e-3

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(1)
        seg = rng.standard_normal(73)
        out = resample_cycle(seg, 512)
        assert out[0] == seg[0] and out[-1] == seg[-1]

    def test_extrema_within_interpolation_error(self):
        rng = np.random.default_rng(2)
        seg = np.cumsum(rng.standard_normal(200)) * 0.05
        out = resample_cycle(seg, 311)
        slack = np.max(np.abs(np.diff(seg)))
        assert out.max() <= seg.max() + slack
        assert out.min() >= seg.min() - slack

    def test_rows_equal_one_dimensional_results(self):
        rng = np.random.default_rng(3)
        seg = rng.standard_normal((12, 389))
        seg[4, :7] = -0.0  # a signed zero shows in the bytes
        for target in (2, 137, 389, 512):
            out = resample_cycle(seg, target)
            want = np.vstack([resample_cycle(row, target) for row in seg])
            assert out.shape == (12, target)
            assert out.tobytes() == want.tobytes()
        assert resample_cycle(np.empty((0, 10)), 5).shape == (0, 5)
        with pytest.raises(ValueError):
            resample_cycle(np.zeros((2, 3, 4)), 10)
        with pytest.raises(ValueError):
            resample_cycle(np.zeros((12, 1)), 10)

    @pytest.mark.filterwarnings("error")
    def test_matches_np_interp(self):
        """Byte for byte np.interp's, row by row, over segments salted with
        non-finite, signed-zero and overflowing samples."""
        rng = np.random.default_rng(6)
        odd = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1.7e308])
        for _ in range(300):
            n = int(rng.integers(2, 901))
            seg = rng.standard_normal((int(rng.integers(1, 4)), n))
            salt = rng.random(seg.shape) < rng.choice([0.0, 0.01, 0.1, 0.5, 0.9])
            seg[salt] = rng.choice(odd, int(salt.sum()))
            for target in {2, 3, 137, 512, n, 2 * n - 1, max(2, n // 2)}:
                grid = np.linspace(0, n - 1, target)
                want = np.vstack([np.interp(grid, np.arange(n), row) for row in seg])
                assert resample_cycle(seg, target).tobytes() == want.tobytes()
                assert resample_cycle(seg[0], target).tobytes() == want[0].tobytes()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            resample_cycle(np.array([1.0]), 10)
        with pytest.raises(ValueError):
            resample_cycle(np.arange(10.0), 1)


class TestDetector:
    def test_synthetic_record_peaks(self):
        record, truth = make_jittered_record(seed=5)
        peaks = detect_r_peaks(record.channels[1], record.fs)
        assert len(peaks) == len(truth)
        assert all(abs(int(p) - t) <= 10 for p, t in zip(peaks, truth))

    def test_zero_signal_no_rhythm(self, monkeypatch):
        with pytest.raises(NoRhythmError):
            detect_r_peaks(np.zeros(5000), 500.0)
        classified = []

        def spy(*args):
            classified.append(_classify(*args))
            return classified[-1]

        monkeypatch.setattr("ecgdyn.segmentation._classify", spy)
        one = np.zeros(1000)  # one burst: the classifier keeps one beat
        one[400:410] = 2 * np.hanning(10)
        with pytest.raises(NoRhythmError, match="found 1 peak"):
            detect_r_peaks(one, 500.0)
        # the two slopes of one wide wave: two beats, whose snaps merge
        merged = np.zeros(1500)
        merged[600:614] = np.linspace(0, 1, 14)
        merged[686:700] = np.linspace(1, 0, 14)
        with pytest.raises(NoRhythmError, match="found 1 peak"):
            detect_r_peaks(merged, 500.0)
        assert classified == [[381], [581, 681]]

    def test_offset_invariance(self):
        record, _ = make_jittered_record(seed=9)
        base = detect_r_peaks(record.channels[1], record.fs)
        shifted = detect_r_peaks(record.channels[1] + 0.1, record.fs)
        assert np.array_equal(base, shifted)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            detect_r_peaks(np.zeros(100), 500.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            detect_r_peaks(np.zeros((2, 1000)), 500.0)

    def test_searchback_recovers_skipped_beat(self):
        # bursts of 10 every 100 samples and one of 2 at 500: below the
        # threshold of a quarter of the signal level, so it is skipped, but
        # above half of it; the 250-sample gap to 650 exceeds 1.66 mean RR
        integrated = np.zeros(700)
        integrated[[100, 200, 300, 400, 650]] = 10.0
        integrated[500] = 2.0
        candidates = [100, 200, 300, 400, 500, 650]
        assert _classify(integrated, candidates, 100) == candidates
        integrated[500] = 1.0  # below half the threshold: stays skipped
        assert _classify(integrated, candidates, 100) == [100, 200, 300, 400, 650]

    def test_strictly_increasing_with_refractory(self):
        record, _ = make_jittered_record(seed=12)
        peaks = detect_r_peaks(record.channels[1], record.fs)
        gaps = np.diff(peaks)
        assert np.all(gaps > 0)
        assert np.all(gaps >= 0.2 * record.fs)

    def test_peaks_are_local_raw_maxima(self):
        record, _ = make_jittered_record(seed=3)
        x = record.channels[1]
        half = int(round(0.05 * record.fs))
        for p in detect_r_peaks(x, record.fs):
            lo, hi = max(0, p - half), min(x.size, p + half + 1)
            assert x[p] == np.max(x[lo:hi])

    def test_inverted_peaks_are_local_raw_minima(self):
        record, _ = make_jittered_record(seed=3)
        x = -record.channels[1]
        half = int(round(0.05 * record.fs))
        for p in detect_r_peaks(x, record.fs):
            lo, hi = max(0, p - half), min(x.size, p + half + 1)
            assert x[p] == np.min(x[lo:hi])

    @pytest.mark.parametrize("at, bad", [(0, np.nan), (1234, np.inf), (-1, -np.inf)])
    def test_non_finite_sample_rejected(self, at, bad):
        record, _ = make_jittered_record(seed=5)
        x = record.channels[1].copy()
        x[at] = bad
        with pytest.raises(ValueError, match=f"sample {at % x.size} is not finite"):
            detect_r_peaks(x, record.fs)


@functools.lru_cache(maxsize=None)
def _lead_ii(fs):
    """Lead II of a 30-beat jittered record and its true R samples."""
    record, truth = make_jittered_record(fs=fs, n_beats=30, seed=11)
    lead = record.channels[1].copy()
    lead.setflags(write=False)  # shared by every case
    return lead, record.fs, tuple(truth)


def _hum(hz):
    return lambda x, fs, truth: x + 0.2 * np.sin(2 * np.pi * hz * np.arange(x.size) / fs + 1.0)


def _spike_on_beat(x, fs, truth):
    # the spike's energy dwarfs every QRS; only the 4 spki cap on level
    # updates keeps the threshold low enough for the beats after it
    out = x.copy()
    out[truth[14]] += 50.0
    return out


#: Faults on a 500 Hz lead II, each a function of (lead, fs, truth).
FAULTS = {
    "white-0.05mV": lambda x, fs, truth: x + np.random.default_rng(0).normal(0.0, 0.05, x.size),
    "hum-50Hz-0.2mV": _hum(50.0),
    "hum-60Hz-0.2mV": _hum(60.0),
    "spike-50mV-on-beat": _spike_on_beat,
    "inverted": lambda x, fs, truth: -x,
}


def _spike_between_beats(x, fs, truth):
    out = x.copy()
    out[(truth[0] + truth[1]) // 2] += 50.0
    return out


#: Faults the detector still fails, each named by a FOUND entry in
#: CHANGES.md; a detector that handles one turns its case into an XPASS.
KNOWN_FAULTS = {
    "white-0.2mV": lambda x, fs, truth: x + np.random.default_rng(0).normal(0.0, 0.2, x.size),
    "spike-50mV-between-beats": _spike_between_beats,
}


def _detect_quietly(x, fs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return detect_r_peaks(x, fs)


class TestDetectorFaults:
    """Recording faults on a 30-beat lead II: every true R is found within
    20 ms, and no other peak is reported."""

    @staticmethod
    def _assert_exact(peaks, truth, fs):
        assert len(peaks) == len(truth)
        assert all(abs(int(p) - t) <= 0.02 * fs for p, t in zip(peaks, truth))

    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_fault(self, fault):
        x, fs, truth = _lead_ii(500)
        self._assert_exact(_detect_quietly(fault(x, fs, truth), fs), truth, fs)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upright", "inverted"])
    @pytest.mark.parametrize("fs", [250, 360.5, 1000])
    def test_sampling_rate(self, fs, sign):
        x, fs, truth = _lead_ii(fs)
        self._assert_exact(_detect_quietly(sign * x, fs), truth, fs)

    @pytest.mark.xfail(strict=True, reason="known detector fault")
    @pytest.mark.parametrize("fault", KNOWN_FAULTS.values(), ids=KNOWN_FAULTS.keys())
    def test_known_fault(self, fault):
        x, fs, truth = _lead_ii(500)
        self._assert_exact(_detect_quietly(fault(x, fs, truth), fs), truth, fs)

    @staticmethod
    def _assert_dropout_handled(lo, hi):
        # a lead that reads 0 mV over [lo, hi): the beats inside it are not
        # in the signal, so the right answer is every beat outside it and
        # no peak within it
        x, fs, truth = _lead_ii(500)
        x = x.copy()
        x[lo:hi] = 0.0
        peaks = _detect_quietly(x, fs)
        outside = [t for t in truth if not lo <= t < hi]
        assert len(outside) < len(truth)
        assert all(np.min(np.abs(peaks - t)) <= 0.02 * fs for t in outside)
        assert not np.any((peaks >= lo) & (peaks < hi))

    def test_flat_dropout(self):
        self._assert_dropout_handled(5000, 6000)  # 2 s at 500 Hz

    @pytest.mark.xfail(strict=True, reason="known detector fault: the dropout's "
                                           "edge beats a QRS within 200 ms")
    def test_flat_dropout_edge_near_beat(self):
        self._assert_dropout_handled(2000, 3000)


class TestSegmentRecord:
    def test_ten_beats_give_nine_cycles(self):
        record, _ = make_jittered_record(seed=5)
        beats = segment_record(record, 512)
        assert len(beats) == 9
        assert all(b.grid.L == 512 for b in beats)
        assert all(b.leads.shape == (12, 512) for b in beats)

    def test_label_propagated(self):
        record, _ = make_jittered_record(seed=5, label="NORMAL")
        beats = segment_record(record, 512)
        assert all(b.label == "NORMAL" for b in beats)

    def test_rows_share_cut_window(self):
        record, _ = make_jittered_record(seed=7)
        peaks = detect_r_peaks(record.channels[1], record.fs)
        beats = segment_record(record, 512)
        k = 4
        start, end = int(peaks[k]), int(peaks[k + 1])
        for row, lead in enumerate(LEAD_NAMES):
            expect = resample_cycle(record.channels[row, start:end], 512)
            assert np.array_equal(beats[k].leads[row], expect)

    def test_cycle_matches_generating_beat(self):
        # two copies of one wander-free beat: the single extracted cycle is
        # the generating beat rolled to start at its R peak
        fs, f = 500, 1.0
        rhythm = RhythmParams(f=f, A=0.0, f2=0.25)
        grid = beat_grid(fs, f)
        params = {lead: default_eta_for_lead(lead) for lead in FREE_LEADS}
        gains = {lead: DEFAULT_GAIN for lead in FREE_LEADS}
        beat = synthesize_heartbeat(params, rhythm, grid, gains=gains)
        channels = np.hstack([beat.leads, beat.leads])
        record = Record(fs=float(fs), channels=channels, id="twin")
        cycles = segment_record(record, 512)
        assert len(cycles) == 1
        r_idx = int(np.argmax(beat.lead("II")))
        rolled = np.roll(beat.lead("II"), -r_idx)
        expect = resample_cycle(rolled, 512)
        r_amp = float(np.max(np.abs(beat.lead("II"))))
        assert np.max(np.abs(cycles[0].lead("II") - expect)) <= 0.02 * r_amp

    def test_record_validation(self):
        with pytest.raises(ValueError):
            Record(fs=500.0, channels=np.zeros((11, 600)), id="bad")
        with pytest.raises(ValueError):
            Record(fs=500.0, channels=np.zeros((12, 100)), id="short")
        with pytest.raises(ValueError):
            Record(fs=500.0, channels=np.zeros((12, 600)), id="x", label="bad-code")
        for fs in (0.0, np.nan):
            with pytest.raises(ValueError, match="sampling frequency"):
                Record(fs=fs, channels=np.zeros((12, 600)), id="rate")
        with pytest.raises(ValueError, match="finite"):
            Record(fs=500.0, channels=np.full((12, 600), np.inf), id="inf")
