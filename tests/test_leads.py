"""12-lead assembly and limb-lead identity checking."""

import numpy as np
import pytest

from ecgdyn.errors import ConfigurationError
from ecgdyn.integrate import beat_grid, integrate_euler
from ecgdyn.leads import (FREE_LEADS, ConsistencyReport, Heartbeat, LEAD_NAMES,
                          LeadRelation, check_lead_consistency, derive_limb_rows,
                          limb_relations, synthesize_heartbeat)
from ecgdyn.model import DEFAULT_RHYTHM
from ecgdyn.params import default_distributions, default_eta_for_lead


@pytest.fixture(scope="module")
def free_params():
    return {lead: default_eta_for_lead(lead) for lead in FREE_LEADS}


@pytest.fixture(scope="module")
def beat(free_params):
    gains = {lead: 22.0 for lead in FREE_LEADS}
    return synthesize_heartbeat(free_params, DEFAULT_RHYTHM, beat_grid(500, 1.0),
                                gains=gains, label="NORMAL")


class TestRelations:
    def test_exactly_six(self):
        assert len(limb_relations()) == 6

    def test_lookup_lead_iii(self):
        (rel,) = [r for r in limb_relations() if r.target == "III"]
        assert (rel.src1, rel.beta, rel.src2, rel.gamma) == ("II", 1.0, "I", -1.0)

    def test_lookup_avr(self):
        (rel,) = [r for r in limb_relations() if r.target == "aVR"]
        assert (rel.src1, rel.beta, rel.src2, rel.gamma) == ("I", -0.5, "II", -0.5)

    def test_all_targets_unique_and_limb(self):
        targets = [rel.target for rel in limb_relations()]
        assert sorted(targets) == sorted(["I", "II", "III", "aVR", "aVL", "aVF"])

    def test_relation_invariants(self):
        with pytest.raises(ValueError):
            LeadRelation("I", "I", 1.0, "III", -1.0)
        with pytest.raises(ValueError):
            LeadRelation("I", "II", 0.0, "III", 0.0)
        with pytest.raises(ValueError):
            LeadRelation("I", "II", 1.0, "X9", -1.0)

    def test_half_coefficient_forms_consistent(self):
        # substituting III = II - I into the aVL/aVF identities reproduces
        # the closed forms used for derivation
        rng = np.random.default_rng(0)
        i, ii = rng.standard_normal((2, 64))
        rows = {"I": i, "II": ii}
        rows.update(derive_limb_rows(i, ii))
        assert np.allclose(rows["aVL"], 0.5 * (i - rows["III"]), rtol=0, atol=1e-15)
        assert np.allclose(rows["aVF"], 0.5 * (ii + rows["III"]), rtol=0, atol=1e-15)
        assert np.allclose(rows["aVR"], -0.5 * (i + ii), rtol=0, atol=0)


class TestSynthesize:
    def test_identities_hold_by_construction(self, beat):
        scale = np.max(np.abs(beat.lead("II")))
        dev = np.max(np.abs(beat.lead("I") - (beat.lead("II") - beat.lead("III"))))
        assert dev <= 1e-12 * scale

    def test_consistency_report_passes(self, beat):
        report = check_lead_consistency(beat, tol=1e-9)
        assert report.passed
        assert max(report.deviations.values()) <= 1e-12 * np.max(np.abs(beat.leads))

    def test_identical_i_and_ii(self, free_params):
        params = dict(free_params)
        params["I"] = params["II"]
        b = synthesize_heartbeat(params, DEFAULT_RHYTHM, beat_grid(500, 1.0))
        assert np.array_equal(b.lead("III"), np.zeros(500))
        assert np.array_equal(b.lead("aVL"), 0.5 * b.lead("I"))

    def test_row_lengths(self, beat):
        assert beat.leads.shape == (12, 500)

    def test_missing_lead_raises_named_error(self, free_params):
        params = {k: v for k, v in free_params.items() if k != "V3"}
        with pytest.raises(ConfigurationError, match="V3"):
            synthesize_heartbeat(params, DEFAULT_RHYTHM, beat_grid(500, 1.0))

    def test_deterministic(self, free_params):
        a = synthesize_heartbeat(free_params, DEFAULT_RHYTHM, beat_grid(500, 1.0))
        b = synthesize_heartbeat(free_params, DEFAULT_RHYTHM, beat_grid(500, 1.0))
        assert np.array_equal(a.leads, b.leads)

    def test_involution_recovers_lead_ii(self, beat):
        recon = beat.lead("I") + beat.lead("III")
        assert np.allclose(recon, beat.lead("II"), rtol=1e-15, atol=1e-15)


class TestConsistencyCheck:
    def test_zeroed_avf_fails(self, beat):
        broken = beat.leads.copy()
        broken[LEAD_NAMES.index("aVF")] = 0.0
        b = Heartbeat(grid=beat.grid, leads=broken)
        report = check_lead_consistency(b, tol=1e-9)
        assert not report.passed
        assert report.deviations["aVF"] > 1e-3

    def test_independent_integration_fails(self):
        # integrating every lead on its own breaks the limb identities
        table = default_distributions()
        grid = beat_grid(500, 1.0)
        rows = []
        for lead in LEAD_NAMES:
            dist = table[("NORMAL", lead)]
            traj = integrate_euler(dist.mean_eta, dist.rhythm, grid)
            rows.append(dist.gain_mean * traj.z)
        beat = Heartbeat(grid=grid, leads=np.vstack(rows))
        report = check_lead_consistency(beat, tol=1e-3)
        assert not report.passed

    def test_report_text(self):
        failed = ConsistencyReport(deviations={"I": 2.5e-4, "aVF": 1.25e-3},
                                   tol=1e-6, passed=False)
        assert str(failed) == "lead consistency FAIL (worst 1.250e-03 mV, tol 1.0e-06)"
        passed = ConsistencyReport(deviations={"III": 0.0}, tol=1e-9, passed=True)
        assert str(passed) == "lead consistency pass (worst 0.000e+00 mV, tol 1.0e-09)"

    def test_heartbeat_validation(self):
        grid = beat_grid(500, 1.0)
        with pytest.raises(ValueError):
            Heartbeat(grid=grid, leads=np.zeros((11, 500)))
        with pytest.raises(ValueError):
            Heartbeat(grid=grid, leads=np.full((12, 500), np.nan))

    def test_lead_accessor_rejects_unknown(self, beat):
        with pytest.raises(ValueError):
            beat.lead("W1")
