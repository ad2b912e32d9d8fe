"""Cut raw multi-lead recordings into fixed-length cardiac cycles.

R peaks are detected on lead II; every lead is then sliced at the same
sample bounds so the cycles stay mutually aligned, and each slice is
resampled to a common length.
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

    Pipeline: first difference (kills any constant offset), squaring,
    150 ms moving-window integration, adaptive threshold at half the
    running mean of accepted peak heights, 200 ms refractory, then a snap
    to the highest raw sample within +-50 ms. Raises NoRhythmError when
    fewer than two beats survive.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if x.size < fs:
        raise ValueError("signal must span at least one second")

    slope_sq = np.diff(x) ** 2
    window = max(1, int(round(INTEGRATION_S * fs)))
    integrated = np.convolve(slope_sq, np.ones(window) / window, mode="same")

    interior = (integrated[1:-1] > integrated[:-2]) & (integrated[1:-1] >= integrated[2:])
    candidates = np.flatnonzero(interior) + 1
    candidates = candidates[integrated[candidates] > 0.0]
    if candidates.size == 0:
        raise NoRhythmError("no rhythmic activity found")

    # one candidate per energy burst: within the refractory span keep the
    # tallest local maximum, not the first ripple of the plateau
    refractory = int(round(REFRACTORY_S * fs))
    merged: list[int] = []
    for idx in candidates:
        if merged and idx - merged[-1] < refractory:
            if integrated[idx] > integrated[merged[-1]]:
                merged[-1] = int(idx)
        else:
            merged.append(int(idx))

    running_mean = float(np.max(integrated))  # first peak must reach half of this
    accepted: list[int] = []
    heights: list[float] = []
    for idx in merged:
        if accepted and idx - accepted[-1] < refractory:
            continue
        if integrated[idx] >= 0.5 * running_mean:
            accepted.append(idx)
            heights.append(float(integrated[idx]))
            running_mean = sum(heights) / len(heights)

    half = int(round(SNAP_S * fs))
    peaks: list[int] = []
    for idx in accepted:
        lo = max(0, idx - half)
        hi = min(x.size, idx + half + 1)
        snapped = lo + int(np.argmax(x[lo:hi]))
        if peaks and snapped - peaks[-1] < refractory:
            if x[snapped] > x[peaks[-1]]:
                peaks[-1] = snapped
        elif not peaks or snapped > peaks[-1]:
            peaks.append(snapped)

    if len(peaks) < 2:
        raise NoRhythmError(f"found {len(peaks)} peak(s), need at least 2")
    return np.asarray(peaks, dtype=int)


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
