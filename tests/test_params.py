"""Distribution sampling and the parameter file format."""

from pathlib import Path

import numpy as np
import pytest

from ecgdyn.errors import ConfigurationError, ParamFileError
from ecgdyn.leads import LEAD_NAMES
from ecgdyn.model import DEFAULT_RHYTHM, N_PARAMS, eta_to_vector
from ecgdyn.params import (ParamDistribution, check_class_code,
                           default_distributions, default_param_path,
                           read_param_file, require_dist, sample_eta,
                           write_param_file, zero_variance)


@pytest.fixture(scope="module")
def table():
    return default_distributions()


@pytest.fixture(scope="module")
def dist(table):
    return table[("NORMAL", "II")]


class TestSampling:
    def test_zero_std_returns_mean_exactly(self, dist):
        frozen = zero_variance({("NORMAL", "II"): dist})[("NORMAL", "II")]
        eta, gain = sample_eta(frozen, seed=123)
        assert tuple(eta_to_vector(eta)) == frozen.mean
        assert gain == frozen.gain_mean

    def test_seed_determinism(self, dist):
        a = sample_eta(dist, seed=42)
        b = sample_eta(dist, seed=42)
        assert eta_to_vector(a[0]).tolist() == eta_to_vector(b[0]).tolist()
        assert a[1] == b[1]

    def test_different_seeds_differ(self, dist):
        a = sample_eta(dist, seed=1)
        b = sample_eta(dist, seed=2)
        assert not np.array_equal(eta_to_vector(a[0]), eta_to_vector(b[0]))

    def test_widths_clamped_and_angles_wrapped(self, dist):
        wide = ParamDistribution(
            class_code="NORMAL", lead="II", mean=dist.mean,
            std=(2.0,) * N_PARAMS, gain_mean=22.0, gain_std=0.0,
            rhythm=dist.rhythm)
        for seed in range(40):
            eta, _ = sample_eta(wide, seed)
            for w in eta.waves:
                assert w.b >= 1e-3
                assert -np.pi <= w.theta < np.pi

    def test_sample_mean_statistics(self, dist):
        # 10k draws with std = 0.1*|mean|: each sample mean stays within
        # three standard errors of the distribution mean
        mean = np.asarray(dist.mean)
        spread = ParamDistribution(
            class_code="NORMAL", lead="II", mean=dist.mean,
            std=tuple(0.1 * np.abs(mean)), gain_mean=22.0, gain_std=0.0,
            rhythm=dist.rhythm)
        rng_draws = np.array([
            eta_to_vector(sample_eta(spread, seed)[0]) for seed in range(10_000)
        ])
        se = np.asarray(spread.std) / np.sqrt(len(rng_draws))
        delta = np.abs(rng_draws.mean(axis=0) - mean)
        assert np.all(delta <= 3.0 * se + 1e-12)


class TestFileFormat:
    def test_round_trip_identity(self, table):
        text = write_param_file(table)
        again = read_param_file(text)
        assert set(again) == set(table)
        for key in table:
            a, b = table[key], again[key]
            assert a.mean == b.mean and a.std == b.std
            assert a.gain_mean == b.gain_mean and a.gain_std == b.gain_std
            assert a.rhythm == b.rhythm

    def test_second_serialization_byte_identical(self, table):
        text = write_param_file(table)
        assert write_param_file(read_param_file(text)) == text

    def test_shipped_file_parses_with_all_leads(self):
        text = Path(default_param_path()).read_text()
        table = read_param_file(text)
        assert {lead for cls, lead in table if cls == "NORMAL"} == set(LEAD_NAMES)
        assert table == default_distributions()

    def test_zero_width_rejected_naming_key(self, table):
        text = write_param_file(table).replace(
            "NORMAL.II.R.b_mean = 0.10000000000000001",
            "NORMAL.II.R.b_mean = 0")
        with pytest.raises(ParamFileError, match="b"):
            read_param_file(text)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParamFileError, match="line 2"):
            read_param_file("# fine\nthis is not a key value pair\n")

    def test_duplicate_key_rejected(self, table):
        text = write_param_file(table)
        first = text.splitlines()[0]
        with pytest.raises(ParamFileError, match="duplicate"):
            read_param_file(text + "\n" + first)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParamFileError, match="unknown key"):
            read_param_file("NORMAL.II.R.c_mean = 1\n")

    def test_unknown_lead_rejected(self):
        with pytest.raises(ParamFileError, match="lead"):
            read_param_file("NORMAL.W9.R.a_mean = 1\n")

    def test_missing_key_rejected(self, table):
        lines = write_param_file(table).splitlines()
        partial = "\n".join(ln for ln in lines
                            if not ln.startswith("NORMAL.II.T.b_std"))
        with pytest.raises(ParamFileError, match="missing"):
            read_param_file(partial)

    def test_bad_number_rejected(self):
        with pytest.raises(ParamFileError, match="bad number"):
            read_param_file("NORMAL.II.gain_mean = abc\n")

    @pytest.mark.parametrize("text, message", [
        ("# comment\nNORMAL.II.gain_mean 22\n", "line 2: expected 'key = value'"),
        ("NORMAL.II.gain_mean = 22\n\nNORMAL.II.gain_mean=23\n",
         "line 3: duplicate key NORMAL.II.gain_mean"),
        ("NORMAL.gain_mean = 1\n", "line 1: unknown key NORMAL.gain_mean"),
        ("NORMAL.II.gain_mean = 1\nNormal.II.gain_std = 1\n",
         "line 2: bad class code 'Normal'"),
        ("NORMAL.II.gain_mean = 1\nNORMAL.W9.gain_mean = 1\n",
         "line 2: unknown lead 'W9'"),
        ("NORMAL.II.gain_mean = 1\nNORMAL.II.R.c_mean = 1\n",
         "line 2: unknown key NORMAL.II.R.c_mean"),
        ("NORMAL.II.gain_mean =  1.5.0  # note\n", "line 1: bad number '1.5.0'"),
        (None, "NORMAL.II: missing key T.b_std"),
    ], ids=["no equals sign", "duplicate key", "two-part key", "bad class code",
            "unknown lead", "unknown field", "bad number", "missing key"])
    def test_error_messages(self, table, text, message):
        if text is None:
            text = "\n".join(ln for ln in write_param_file(table).splitlines()
                             if not ln.startswith("NORMAL.II.T.b_std"))
        with pytest.raises(ParamFileError) as info:
            read_param_file(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("pad", [" ", "\t", " \t ", "\x1f", "\xa0"])
    def test_padded_value_parses(self, table, pad):
        text = write_param_file(table).replace(
            "NORMAL.II.gain_mean = 22\n", f"NORMAL.II.gain_mean ={pad}22.5{pad}\n")
        assert read_param_file(text)[("NORMAL", "II")].gain_mean == 22.5

    def test_comments_and_blank_lines_ignored(self, table):
        text = "# header\n\n" + write_param_file(table) + "\n# footer\n"
        assert read_param_file(text) == read_param_file(write_param_file(table))


class TestValidation:
    def test_negative_std_rejected(self, dist):
        std = list(dist.std)
        std[0] = -1e-3
        with pytest.raises(ValueError):
            ParamDistribution(class_code="NORMAL", lead="II", mean=dist.mean,
                              std=tuple(std), gain_mean=22.0, gain_std=0.0,
                              rhythm=DEFAULT_RHYTHM)

    def test_class_code_rules(self):
        check_class_code("NORMAL")
        check_class_code("IAVB")
        for bad in ("", "normal", "A-B", "a1"):
            with pytest.raises(ValueError):
                check_class_code(bad)

    def test_require_dist_missing_entry(self, table):
        with pytest.raises(ConfigurationError, match="IAVB"):
            require_dist(table, "IAVB", "II")

    def test_mean_width_floor(self, dist):
        mean = list(dist.mean)
        mean[2] = 1e-4  # P width below the floor
        with pytest.raises(ValueError):
            ParamDistribution(class_code="NORMAL", lead="II", mean=tuple(mean),
                              std=dist.std, gain_mean=22.0, gain_std=0.0,
                              rhythm=DEFAULT_RHYTHM)
