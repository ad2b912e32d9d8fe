"""Command-line surface: subcommands, exit codes, formats, determinism."""

import numpy as np
import pytest

from helpers import make_jittered_record
from ecgdyn.cli import (read_beats_csv, read_record_csv, run_cli,
                        write_beats_csv, write_record_csv)
from ecgdyn.params import (default_distributions, default_param_path,
                           write_param_file, zero_variance)


@pytest.fixture(scope="module")
def params_file():
    return default_param_path()


@pytest.fixture(scope="module")
def zero_params_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "zero.params"
    path.write_text(write_param_file(zero_variance(default_distributions())),
                    encoding="utf-8")
    return str(path)


def synth(out, params, beats=1, seed=7, extra=()):
    return run_cli(["synthesize", "--params", params, "--class", "NORMAL",
                    "--fs", "500", "--beats", str(beats), "--seed", str(seed),
                    "--out", str(out), *extra])


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 1
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1

    def test_unknown_flag_rejected(self, params_file, tmp_path):
        code = synth(tmp_path / "x.csv", params_file, extra=["--bogus", "1"])
        assert code == 1

    def test_missing_required_flag(self):
        assert run_cli(["synthesize", "--class", "NORMAL"]) == 1


class TestSynthesize:
    def test_writes_parseable_beats(self, params_file, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        assert synth(out, params_file, beats=3) == 0
        capsys.readouterr()
        beats = read_beats_csv(out)
        assert len(beats) == 3
        assert all(b.grid.L == 500 for b in beats)
        assert beats[0].grid.fs == 500.0

    def test_seed_reproducibility_bytes(self, params_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert synth(a, params_file, beats=2) == 0
        assert synth(b, params_file, beats=2) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, params_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert synth(a, params_file, seed=1) == 0
        assert synth(b, params_file, seed=2) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_single_beat_has_no_beat_column(self, params_file, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert synth(out, params_file, beats=1) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0].startswith("time,")

    def test_stdout_stays_clean(self, params_file, tmp_path, capsys):
        assert synth(tmp_path / "o.csv", params_file) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wrote" in captured.err

    def test_missing_params_file(self, tmp_path):
        assert synth(tmp_path / "o.csv", str(tmp_path / "nope.params")) == 2

    def test_bad_params_file(self, tmp_path):
        bad = tmp_path / "bad.params"
        bad.write_text("NORMAL.II.R.b_mean = 0\n")
        assert synth(tmp_path / "o.csv", str(bad)) == 2


class TestCheck:
    def test_synthesized_beats_pass(self, params_file, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=2)
        capsys.readouterr()
        assert run_cli(["check", "--input", str(out), "--tol", "1e-9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beat,relation,deviation,status"
        assert len(lines) == 1 + 2 * 6
        assert all(line.endswith("pass") for line in lines[1:])

    def test_violated_identity_exits_two(self, params_file, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        synth(out, params_file)
        capsys.readouterr()
        beats = read_beats_csv(out)
        beats[0].leads[5] += 0.5  # corrupt aVF
        write_beats_csv(out, beats)
        assert run_cli(["check", "--input", str(out), "--tol", "1e-9"]) == 2
        assert "fail" in capsys.readouterr().out

    def test_garbage_input_exits_two(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("not,a,beat\n1,2,3\n")
        assert run_cli(["check", "--input", str(bad), "--tol", "1e-9"]) == 2


class TestScore:
    def test_zero_variance_self_score(self, zero_params_file, tmp_path, capsys):
        out = tmp_path / "beat.csv"
        synth(out, zero_params_file)
        capsys.readouterr()
        code = run_cli(["score", "--input", str(out), "--params",
                        zero_params_file, "--delta", "1", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["beat", "combined"]
        combined = float(lines[1].split(",")[1])
        assert combined <= 1e-12

    def test_multibeat_rows(self, params_file, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=3)
        capsys.readouterr()
        assert run_cli(["score", "--input", str(out), "--params", params_file,
                        "--samples", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_score_deterministic(self, params_file, tmp_path, capsys):
        out = tmp_path / "beat.csv"
        synth(out, params_file)
        capsys.readouterr()
        args = ["score", "--input", str(out), "--params", params_file,
                "--seed", "5", "--samples", "3"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first


class TestRefine:
    def test_refine_smoke(self, params_file, tmp_path, capsys):
        src = tmp_path / "noise.csv"
        rng = np.random.default_rng(0)
        from ecgdyn.integrate import SamplingGrid
        from ecgdyn.leads import Heartbeat

        beat = Heartbeat(grid=SamplingGrid(500.0, 500),
                         leads=rng.uniform(-0.1, 0.1, (12, 500)))
        write_beats_csv(src, [beat])
        out = tmp_path / "refined.csv"
        code = run_cli(["refine", "--input", str(src), "--params", params_file,
                        "--delta", "0.6", "--steps", "40", "--seed", "1",
                        "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert run_cli(["check", "--input", str(out), "--tol", "1e-9"]) == 0

    def test_steps_validated_but_bound_nothing(self, params_file, tmp_path, capsys):
        # refine solves exactly; --steps is still checked for compatibility
        from ecgdyn.integrate import SamplingGrid
        from ecgdyn.leads import Heartbeat

        src = tmp_path / "noise.csv"
        rng = np.random.default_rng(2)
        write_beats_csv(src, [Heartbeat(grid=SamplingGrid(500.0, 500),
                                        leads=rng.uniform(-0.1, 0.1, (12, 500)))])
        args = ["refine", "--input", str(src), "--params", params_file]
        for steps in ("1", "500"):
            out = tmp_path / f"refined{steps}.csv"
            assert run_cli(args + ["--steps", steps, "--out", str(out)]) == 0
        assert (tmp_path / "refined1.csv").read_bytes() == \
            (tmp_path / "refined500.csv").read_bytes()
        assert run_cli(args + ["--steps", "0", "--out", str(tmp_path / "o.csv")]) == 2
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_refine_diverged_exit_three(self, params_file, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        from ecgdyn.integrate import SamplingGrid
        from ecgdyn.leads import Heartbeat

        beat = Heartbeat(grid=SamplingGrid(500.0, 500),
                         leads=np.full((12, 500), 1e160))
        write_beats_csv(src, [beat])
        code = run_cli(["refine", "--input", str(src), "--params", params_file,
                        "--steps", "5", "--out", str(tmp_path / "o.csv")])
        assert code == 3


class TestFit:
    def test_single_beat_fit_writes_params(self, zero_params_file, tmp_path, capsys):
        src = tmp_path / "beat.csv"
        synth(src, zero_params_file)
        capsys.readouterr()
        out = tmp_path / "fit.params"
        code = run_cli(["fit", "--input", str(src), "--lead", "II", "--init",
                        zero_params_file, "--max-iter", "50", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beat,lead,iterations,converged,final_distance"
        cells = lines[1].split(",")
        assert cells[1] == "II" and cells[3] == "1"
        assert float(cells[4]) <= 1e-10
        from ecgdyn.params import read_param_file

        table = read_param_file(out.read_text())
        assert ("NORMAL", "II") in table

    def test_multibeat_fit_summarizes(self, params_file, tmp_path, capsys):
        src = tmp_path / "beats.csv"
        synth(src, params_file, beats=3)
        capsys.readouterr()
        out = tmp_path / "fit.params"
        code = run_cli(["fit", "--input", str(src), "--lead", "II", "--init",
                        params_file, "--max-iter", "2000", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + one row per beat
        from ecgdyn.params import read_param_file

        table = read_param_file(out.read_text())
        assert ("NORMAL", "II") in table

    def test_unknown_lead_rejected_as_bad_input(self, zero_params_file, tmp_path):
        code = run_cli(["fit", "--input", "x.csv", "--lead", "QQ", "--init",
                        zero_params_file, "--out", str(tmp_path / "o.params")])
        assert code == 2


class TestSegment:
    def test_segments_record_to_files(self, tmp_path, capsys):
        record, _ = make_jittered_record(seed=5)
        src = tmp_path / "record.csv"
        write_record_csv(src, record)
        out_dir = tmp_path / "cycles"
        code = run_cli(["segment", "--input", str(src), "--length", "512",
                        "--out-dir", str(out_dir), "--class", "NORMAL"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,start,end,file"
        assert len(lines) == 10  # nine cycles
        files = sorted(out_dir.glob("*.csv"))
        assert len(files) == 9
        cycle = read_beats_csv(files[0])
        assert cycle[0].grid.L == 512

    def test_flat_record_exits_two(self, tmp_path):
        from ecgdyn.segmentation import Record

        record = Record(fs=500.0, channels=np.zeros((12, 5000)), id="flat")
        src = tmp_path / "flat.csv"
        write_record_csv(src, record)
        code = run_cli(["segment", "--input", str(src), "--length", "512",
                        "--out-dir", str(tmp_path / "d")])
        assert code == 2


class TestCsvRoundTrip:
    def test_beats_round_trip_bitexact(self, params_file, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=2)
        capsys.readouterr()
        beats = read_beats_csv(out)
        again = tmp_path / "again.csv"
        write_beats_csv(again, beats)
        assert out.read_bytes() == again.read_bytes()

    def test_record_round_trip(self, tmp_path):
        record, _ = make_jittered_record(seed=2)
        src = tmp_path / "rec.csv"
        write_record_csv(src, record)
        back = read_record_csv(src)
        assert back.fs == record.fs
        assert np.array_equal(back.channels, record.channels)
        assert back.id == "rec"
