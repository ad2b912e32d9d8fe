"""Seeded benchmark inputs, built only through ecgdyn's public API.

Everything here runs outside the timed interval. The same seed always
gives the same files; the program under test only ever sees the files.

Why each input property exists:

* Fixed gain on fit beats. The ``fit`` subcommand divides the observed
  lead by the class ``gain_mean`` before fitting, so a beat synthesized at
  exactly that gain is an exact model trajectory and the recovery gate of
  acceptance criterion 7 (0.02 relative, 0.02 rad, distance <= 1e-6 * L)
  is reachable. A sampled gain would leave a scale error no fit can remove.
* 0.05 mV white noise on refine beats. Refinement exists to pull a
  waveform that is off the dynamics back onto it; a clean synthesized beat
  is already on it and would return after one loss evaluation. The noise
  goes on the 8 free leads and the limb leads are re-derived, so the input
  itself satisfies the limb identities the output is checked against.
* Mild recorder noise on ingest records (0.01 mV white plus 0.05 mV 50 Hz
  hum on every free lead). Real recordings are never clean, and acceptance
  criterion 9 must hold at this level.
* One fault record in every four ingest records, alternating between
  0.05 mV white noise and an inverted lead II. These are the detector
  failures listed under ROADMAP item 5. They stay in the workload so the
  known defect shows in the error rate instead of being hidden by the
  choice of data.
* 60-100 bpm rate jitter, beat by beat. The detector's refractory period,
  integration window and adaptive threshold all interact with the RR
  interval; a constant rate would test a single interval only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ecgdyn import (FREE_LEADS, LEAD_NAMES, Heartbeat, ParamDistribution,
                    Record, RhythmParams, State, beat_grid, default_param_path,
                    eta_to_vector, integrate_euler, read_param_file, sample_eta,
                    synthesize_heartbeat, write_param_file)
from ecgdyn.cli import write_beats_csv, write_record_csv
from ecgdyn.leads import derive_limb_rows

FS = 500.0
CLASS = "NORMAL"

REFINE_NOISE_MV = 0.05
MILD_WHITE_MV = 0.01
MILD_HUM_MV = 0.05
HUM_HZ = 50.0
FAULT_WHITE_MV = 0.05
BPM_RANGE = (60.0, 100.0)

#: Fault kinds of ingest records; "mild" is the clean-but-realistic case.
MILD, NOISY, INVERTED = "mild", "noise", "inverted"


def shipped_table():
    """The NORMAL table shipped with the package."""
    return read_param_file(Path(default_param_path()).read_text(encoding="utf-8"))


def zero_variance(table):
    """Copy of a table with every spread, the gain's too, set to zero."""
    return {key: ParamDistribution(
                class_code=d.class_code, lead=d.lead, mean=d.mean,
                std=(0.0,) * len(d.std), gain_mean=d.gain_mean, gain_std=0.0,
                rhythm=d.rhythm)
            for key, d in table.items()}


def write_params(path, table) -> None:
    Path(path).write_text(write_param_file(table), encoding="utf-8")


def cli_seed(*key) -> int:
    """A CLI ``--seed`` value derived from the run seed and a job key."""
    return int(np.random.default_rng(key).integers(0, 2**31 - 1))


def _with_limbs(free: dict[str, np.ndarray]) -> np.ndarray:
    rows = dict(free)
    rows.update(derive_limb_rows(rows["I"], rows["II"]))
    return np.vstack([rows[name] for name in LEAD_NAMES])


def fit_beat(table, path, seed) -> np.ndarray:
    """One beat whose lead II is an exact model trajectory at the class gain.

    Writes the beat to ``path`` and returns the true lead II parameter
    vector (theta, a, b per wave, P..T).
    """
    lead_params = {lead: sample_eta(table[(CLASS, lead)], (*seed, k))[0]
                   for k, lead in enumerate(FREE_LEADS)}
    gains = {lead: table[(CLASS, lead)].gain_mean for lead in FREE_LEADS}
    rhythm = table[(CLASS, "II")].rhythm
    beat = synthesize_heartbeat(lead_params, rhythm, beat_grid(FS, rhythm.f),
                                gains=gains, label=CLASS)
    write_beats_csv(path, [beat])
    return eta_to_vector(lead_params["II"])


def refine_beat(table, path, seed) -> Heartbeat:
    """A sampled NORMAL beat with white noise on its free leads."""
    draws = {lead: sample_eta(table[(CLASS, lead)], (*seed, k))
             for k, lead in enumerate(FREE_LEADS)}
    rhythm = table[(CLASS, "II")].rhythm
    grid = beat_grid(FS, rhythm.f)
    clean = synthesize_heartbeat({lead: eta for lead, (eta, _) in draws.items()},
                                 rhythm, grid,
                                 gains={lead: g for lead, (_, g) in draws.items()})
    rng = np.random.default_rng((*seed, 99))
    free = {lead: clean.lead(lead) + rng.normal(0.0, REFINE_NOISE_MV, grid.L)
            for lead in FREE_LEADS}
    beat = Heartbeat(grid=grid, leads=_with_limbs(free), label=CLASS)
    write_beats_csv(path, [beat])
    return beat


@dataclass
class Chain:
    """A long noise-free record integrated beat by beat without splices.

    ``starts[k]`` is the first sample of beat k (``starts[-1]`` is the
    end), ``truth[k]`` its R sample on lead II.
    """

    rows: dict[str, np.ndarray]
    starts: list[int]
    truth: list[int]


def make_chain(table, n_beats: int, seed) -> Chain:
    """Chained integration with the rate drawn per beat from 60-100 bpm.

    State and time carry over between beats on every lead, so the record
    has no splice artifacts. The true R sample of a beat is the lead II
    maximum near the R event angle of the generating trajectory.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(BPM_RANGE[0] / 60.0, BPM_RANGE[1] / 60.0, n_beats)
    base = table[(CLASS, "II")].rhythm
    etas = {lead: table[(CLASS, lead)].mean_eta for lead in FREE_LEADS}
    gains = {lead: table[(CLASS, lead)].gain_mean for lead in FREE_LEADS}
    states = {lead: State(-1.0, 0.0, 0.0, 0.0) for lead in FREE_LEADS}
    parts = {lead: [] for lead in FREE_LEADS}
    starts, truth = [0], []
    for f in rates:
        rhythm = RhythmParams(f=float(f), A=base.A, f2=base.f2)
        grid = beat_grid(FS, float(f))
        for lead in FREE_LEADS:
            s = states[lead]
            traj = integrate_euler(etas[lead], rhythm, grid, s)
            parts[lead].append(gains[lead] * traj.z)
            states[lead] = State(float(traj.x[-1]), float(traj.y[-1]),
                                 float(traj.z[-1]), s.t + grid.L * grid.dt)
            if lead == "II":
                near_r = np.abs(np.arctan2(traj.y, traj.x)) < 0.3
                truth.append(starts[-1] + int(np.argmax(np.where(near_r, traj.z, -np.inf))))
        starts.append(starts[-1] + grid.L)
    rows = {lead: np.concatenate(p) for lead, p in parts.items()}
    return Chain(rows=rows, starts=starts, truth=truth)


def write_record(chain: Chain, first: int, n_beats: int, kind: str, path,
                 seed) -> tuple[np.ndarray, list[int]]:
    """Cut beats first..first+n_beats-1 from a chain, add noise, write it.

    Returns the 12 x N channels written and the true R samples relative
    to the record start. Noise goes on
    the free leads and the limb leads are derived afterwards, so the
    record satisfies the limb identities whatever its fault.
    """
    lo, hi = chain.starts[first], chain.starts[first + n_beats]
    n = hi - lo
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    free = {}
    for lead in FREE_LEADS:
        x = chain.rows[lead][lo:hi].copy()
        if kind == NOISY:
            x += rng.normal(0.0, FAULT_WHITE_MV, n)
        else:
            x += rng.normal(0.0, MILD_WHITE_MV, n)
            x += MILD_HUM_MV * np.sin(2.0 * math.pi * HUM_HZ * t
                                      + rng.uniform(0.0, 2.0 * math.pi))
        free[lead] = x
    if kind == INVERTED:
        free["II"] = -free["II"]
    record = Record(fs=FS, channels=_with_limbs(free), id=Path(path).stem,
                    label=CLASS)
    write_record_csv(path, record)
    return record.channels, [r - lo for r in chain.truth[first:first + n_beats]]
