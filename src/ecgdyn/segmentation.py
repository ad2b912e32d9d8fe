"""Cut raw multi-lead recordings into fixed-length cardiac cycles.

R peaks are detected on lead II by a Pan & Tompkins detector with the
Hamilton & Tompkins decision rules, in the lead's own polarity; every lead
is then sliced at the same sample bounds so the cycles stay mutually
aligned, and each slice is resampled to a common length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRhythmError
from .integrate import SamplingGrid
from .leads import Heartbeat, LEAD_INDEX
from .params import check_class_code

#: Minimum spacing between accepted peaks, in seconds.
REFRACTORY_S = 0.2

#: Moving-window integration span of the detector, in seconds.
INTEGRATION_S = 0.150

#: Half-width of the snap-to-raw-maximum window, in seconds.
SNAP_S = 0.05

# Span of the detector's slope, in seconds: one period of 50 Hz hum.
_SLOPE_S = 0.020


@dataclass
class Record:
    """A raw 12-lead recording in millivolts."""

    fs: float
    channels: np.ndarray  # shape (12, N), rows ordered as LEAD_NAMES
    id: str
    label: str | None = None  # annotation propagated to every cycle

    def __post_init__(self):
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"sampling frequency must be positive, got {self.fs}")
        arr = np.asarray(self.channels, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != 12:
            raise ValueError(f"channels must be 12 x N, got {arr.shape}")
        if arr.shape[1] < self.fs:
            raise ValueError("record must span at least one second")
        if not np.all(np.isfinite(arr)):
            raise ValueError("record samples must be finite")
        self.channels = arr
        if self.label is not None:
            check_class_code(self.label)


def detect_r_peaks(signal, fs: float) -> np.ndarray:
    """R-peak sample indices on a single lead, sorted ascending.

    Pan & Tompkins (1985) with the decision rules of Hamilton & Tompkins
    (1986). The slope over a 20 ms span, written at the span's centre,
    ignores any constant offset, averages white noise and, at 500 Hz,
    nulls 50 Hz hum; it is squared and integrated over 150 ms. Within the
    200 ms refractory span only the tallest local maximum of that energy
    is a candidate. A candidate is a beat when it reaches
    ``npki + 0.25 (spki - npki)``, where the signal level ``spki`` starts
    at the median of the per-2 s maxima of the energy and the noise level
    ``npki`` at its median, and each candidate moves one of them, by at
    most four times ``spki``. When an RR interval exceeds 1.66 times the
    mean of the last eight, the tallest skipped candidate at half the
    threshold is searched back. Each beat is snapped to the extreme raw
    sample within +-50 ms in the record's polarity: the sign with the
    larger median excursion around the beats. Raises ValueError on a
    non-finite sample and NoRhythmError when fewer than two beats survive.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if x.size < fs:
        raise ValueError("signal must span at least one second")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"signal sample {bad[0]} is not finite")

    span = max(1, int(round(_SLOPE_S * fs)))
    slope = np.zeros(x.size)
    slope[span // 2:x.size - span + span // 2] = (x[span:] - x[:-span]) / span
    window = max(1, int(round(INTEGRATION_S * fs)))
    integrated = np.convolve(slope ** 2, np.ones(window) / window, mode="same")

    interior = (integrated[1:-1] > integrated[:-2]) & (integrated[1:-1] >= integrated[2:])
    candidates = np.flatnonzero(interior) + 1
    candidates = candidates[integrated[candidates] > 0.0]
    if candidates.size == 0:
        raise NoRhythmError("no rhythmic activity found")

    # one candidate per energy burst: its tallest local maximum, not a ripple
    refractory = int(round(REFRACTORY_S * fs))
    merged = _keep_tallest(candidates.tolist(), integrated, refractory)
    beats = _classify(integrated, merged, int(round(2.0 * fs)))
    if len(beats) < 2:
        raise NoRhythmError(f"found {len(beats)} peak(s), need at least 2")
    half = int(round(SNAP_S * fs))
    rows = np.clip(np.add.outer(beats, np.arange(-half, half + 1)), 0, x.size - 1)
    windows = x[rows]
    centre = np.sort(windows, axis=1)[:, half]  # each row's median
    up = _median(windows.max(axis=1) - centre)
    down = _median(centre - windows.min(axis=1))
    polarity = 1.0 if up >= down else -1.0
    snaps = rows[np.arange(len(beats)), np.argmax(polarity * windows, axis=1)]
    peaks = _keep_tallest(snaps.tolist(), polarity * x, refractory)
    if len(peaks) < 2:
        raise NoRhythmError(f"found {len(peaks)} peak(s), need at least 2")
    return np.asarray(peaks, dtype=int)


def _keep_tallest(indices: list[int], height: np.ndarray, span: int) -> list[int]:
    """indices in order, where one closer than span to the last kept index
    replaces it if taller; of equal heights the earlier stays."""
    kept: list[int] = []
    for idx in indices:
        if kept and idx - kept[-1] < span:
            if height[idx] > height[kept[-1]]:
                kept[-1] = idx
        else:
            kept.append(idx)
    return kept


def _classify(integrated: np.ndarray, candidates: list[int], block: int) -> list[int]:
    """The candidates detect_r_peaks keeps as beats, in order.

    Consecutive candidates lie at least one refractory span apart, so
    every candidate may follow the last beat.
    """
    spki = _median(np.array([integrated[i:i + block].max()
                             for i in range(0, integrated.size, block)]))
    npki = _median(integrated)
    beats: list[int] = []
    rr: list[int] = []
    skipped: list[int] = []  # candidates since the last beat

    def accept(idx: int, weight: float) -> None:
        nonlocal spki
        if beats:
            rr.append(idx - beats[-1])
        beats.append(idx)
        spki += weight * (min(integrated[idx], 4.0 * spki) - spki)

    for idx in candidates:
        threshold = npki + 0.25 * (spki - npki)
        if rr and idx - beats[-1] > 1.66 * sum(rr[-8:]) / len(rr[-8:]):
            found = [c for c in skipped if integrated[c] >= 0.5 * threshold]
            if found:
                best = max(found, key=integrated.__getitem__)
                accept(best, 0.25)
                skipped = [c for c in skipped if c > best]
                threshold = npki + 0.25 * (spki - npki)
        if integrated[idx] >= threshold:
            accept(idx, 0.125)
            skipped = []
        else:
            npki += 0.125 * (min(integrated[idx], 4.0 * spki) - npki)
            skipped.append(idx)
    return beats


def _median(values: np.ndarray) -> float:
    """Median of a non-empty 1-D array; np.median would import numpy.ma,
    about 1 MiB of resident memory, on its first call."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2])
    return 0.5 * (float(part[(n - 1) // 2]) + float(part[n // 2]))


def resample_cycle(segment, target_len: int) -> np.ndarray:
    """Linear interpolation onto target_len uniform points over the segment.

    ``segment`` is one 1-D segment or a (rows, n) array whose rows are
    resampled on one shared grid; each row equals its own 1-D result.
    Endpoints are preserved exactly, and a segment already at the target
    length passes through unchanged.
    """
    seg = np.asarray(segment, dtype=float)
    if seg.ndim not in (1, 2) or seg.shape[-1] < 2:
        raise ValueError("segment must be a 1-D or 2-D array with at least 2 samples")
    if target_len < 2:
        raise ValueError("target length must be at least 2")
    positions = np.linspace(0.0, seg.shape[-1] - 1.0, target_len)
    xp = np.arange(seg.shape[-1])
    if seg.ndim == 1:
        return np.interp(positions, xp, seg)
    return np.array([np.interp(positions, xp, row) for row in seg]).reshape(
        len(seg), target_len)


def segment_record(record: Record, target_len: int = 512) -> list[Heartbeat]:
    """One aligned Heartbeat per full RR interval of the record.

    Peaks come from lead II alone; all 12 rows are cut on the identical
    [peak_k, peak_{k+1}) window and resampled to target_len. The record's
    annotation, when present, labels every cycle. n peaks yield n-1 cycles.
    """
    return _segmentation(record, target_len)[1]


def _segmentation(record: Record, target_len: int) -> tuple[np.ndarray, list]:
    """The R peaks segment_record cuts at, and its cycles."""
    peaks = detect_r_peaks(record.channels[LEAD_INDEX["II"]], record.fs)
    beats = []
    for start, end in zip(peaks[:-1], peaks[1:]):
        span = int(end) - int(start)
        rows = resample_cycle(record.channels[:, start:end], target_len)
        # resampling rescales time; keep the cycle's real duration
        fs_eff = record.fs * target_len / span
        grid = SamplingGrid(fs=fs_eff, L=target_len)
        beats.append(Heartbeat(grid=grid, leads=rows, label=record.label))
    return peaks, beats
