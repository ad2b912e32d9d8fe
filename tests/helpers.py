"""Shared test fixtures: synthetic records with known R-peak positions, and
parameter tables whose leads run at different rhythms."""

from dataclasses import replace

import numpy as np

from ecgdyn.integrate import State, beat_grid, integrate_euler
from ecgdyn.leads import FREE_LEADS, LEAD_NAMES, derive_limb_rows
from ecgdyn.model import RhythmParams
from ecgdyn.params import default_eta_for_lead
from ecgdyn.segmentation import Record

DEFAULT_GAIN = 22.0

MIXED_RHYTHMS = {"I": RhythmParams(f=1.1, A=0.05, f2=0.3),
                 "III": RhythmParams(f=0.9, A=0.2, f2=0.2),
                 "aVR": RhythmParams(f=1.2, A=0.1, f2=0.35)}


def with_rhythms(table, rhythms):
    """Copy of a table with the given leads' rhythms replaced."""
    return {key: replace(dist, rhythm=rhythms.get(dist.lead, dist.rhythm))
            for key, dist in table.items()}


def make_jittered_record(fs=500, n_beats=10, bpm_range=(60.0, 100.0), seed=5,
                         label="NORMAL", wander=0.15):
    """A continuous 12-lead record of n_beats with per-beat rate jitter.

    Each lead is integrated as one chained trajectory (state and time carry
    over between beats), so the record has no splice artifacts. Returns
    (record, truth) where truth holds the ground-truth R sample of every
    beat: the lead II maximum restricted to the neighborhood of the R event
    angle, read off the generating trajectory itself.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(bpm_range[0] / 60.0, bpm_range[1] / 60.0, n_beats)
    etas = {lead: default_eta_for_lead(lead) for lead in FREE_LEADS}

    rows = {lead: [] for lead in FREE_LEADS}
    truth = []
    states = {lead: State(-1.0, 0.0, 0.0, 0.0) for lead in FREE_LEADS}
    offset = 0
    for k, f in enumerate(rates):
        rhythm = RhythmParams(f=float(f), A=wander, f2=0.25)
        grid = beat_grid(fs, float(f))
        phase = None
        for lead in FREE_LEADS:
            traj = integrate_euler(etas[lead], rhythm, grid, states[lead])
            rows[lead].append(DEFAULT_GAIN * traj.z)
            states[lead] = State(float(traj.x[-1]), float(traj.y[-1]),
                                 float(traj.z[-1]),
                                 states[lead].t + grid.L * grid.dt)
            if lead == "II":
                phase = np.arctan2(traj.y, traj.x)
                near_r = np.abs(phase) < 0.3
                z = np.where(near_r, traj.z, -np.inf)
                truth.append(offset + int(np.argmax(z)))
        offset += grid.L

    full = {lead: np.concatenate(parts) for lead, parts in rows.items()}
    full.update(derive_limb_rows(full["I"], full["II"]))
    channels = np.vstack([full[name] for name in LEAD_NAMES])
    record = Record(fs=float(fs), channels=channels, id=f"synth{n_beats}",
                    label=label)
    return record, truth
