"""Command-line surface: subcommands, exit codes, formats, determinism."""

import argparse
import errno
import os
import shutil
import tracemalloc

import numpy as np
import pytest

import naive_reference as oracle
from helpers import make_jittered_record
from ecgdyn import cli
from ecgdyn.cli import (read_beats_csv, read_record_csv, run_cli,
                        write_beats_csv, write_record_csv)
from ecgdyn.integrate import SamplingGrid
from ecgdyn.leads import Heartbeat
from ecgdyn.params import (default_distributions, default_param_path,
                           write_param_file, zero_variance)
from ecgdyn.segmentation import Record


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

    @staticmethod
    def _parse(parser, argv, capsys):
        """(exit code, stdout, stderr) of a parse that must end the parser."""
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        return (info.value.code, *capsys.readouterr())

    # each subcommand's required flags and one flag whose value is typed
    _REQUIRED = {
        "synthesize": (["--params", "p", "--class", "NORMAL", "--out", "o"], "--beats"),
        "score": (["--input", "i", "--params", "p"], "--samples"),
        "refine": (["--input", "i", "--params", "p", "--out", "o"], "--steps"),
        "fit": (["--input", "i", "--init", "p", "--out", "o"], "--max-iter"),
        "segment": (["--input", "i", "--out-dir", "d"], "--length"),
        "check": (["--input", "i"], "--tol"),
    }

    @pytest.mark.parametrize("command", list(_REQUIRED))
    @pytest.mark.parametrize("case", ["help", "missing flag", "unknown flag",
                                      "bad typed value"])
    def test_one_subcommand_parser_matches_full(self, command, case, capsys):
        required, typed = self._REQUIRED[command]
        argv = [command, *{"help": ["--help"], "missing flag": [],
                           "unknown flag": [*required, "--bogus"],
                           "bad typed value": [*required, typed, "x"]}[case]]
        full = self._parse(cli.build_parser(), argv, capsys)
        assert full[0] == (0 if case == "help" else 1)
        assert full[1 if case == "help" else 2]
        assert self._parse(cli.build_parser(command), argv, capsys) == full
        assert run_cli(argv) == full[0]
        assert capsys.readouterr() == full[1:]

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--version"], ["-h"]])
    def test_calls_without_subcommand_use_full_parser(self, argv, capsys):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        if argv:
            assert (code, out, err) == self._parse(cli.build_parser(), argv, capsys)
        else:
            assert (code, out) == (1, "")
            cli.build_parser().print_usage()
            assert err == capsys.readouterr().out
        if argv == ["frobnicate"]:
            assert "'synthesize', 'score', 'refine', 'fit', 'segment', 'check'" in err

    @staticmethod
    def _choices(parser):
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    def test_named_subcommand_builds_one_subparser(self):
        assert self._choices(cli.build_parser("fit")) == ["fit"]
        every = ["synthesize", "score", "refine", "fit", "segment", "check"]
        assert self._choices(cli.build_parser()) == every
        assert self._choices(cli.build_parser("frobnicate")) == every


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

    @pytest.mark.parametrize("beats", ["0", "-3"])
    def test_beats_below_one_rejected(self, params_file, tmp_path, capsys, beats):
        out = tmp_path / "none.csv"
        assert synth(out, params_file, beats=beats) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--beats" in captured.err

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


    @pytest.mark.parametrize("flags, message", [
        (["--class", "FOO"], "FOO"),
        (["--class", "bad"], "uppercase"),
        (["--samples", "0"], "--samples"),
        (["--samples", "-2"], "--samples"),
    ], ids=["class not in table", "bad class code", "zero samples",
            "negative samples"])
    def test_bad_request_fails_before_header(self, params_file, tmp_path, capsys,
                                             flags, message):
        out = tmp_path / "beat.csv"
        synth(out, params_file)
        capsys.readouterr()
        assert run_cli(["score", "--input", str(out), "--params", params_file,
                        *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_huge_finite_beat_fails_before_header(self, params_file, tmp_path,
                                                  capsys):
        # every sample is finite, but the squared residuals overflow
        src = tmp_path / "huge.csv"
        write_beats_csv(src, [Heartbeat(grid=SamplingGrid(500.0, 500),
                                        leads=np.full((12, 500), 1e300))] * 2)
        assert run_cli(["score", "--input", str(src), "--params", params_file,
                        "--samples", "2"]) == 2  # a RuntimeWarning would raise
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ecgdyn: beat 0: score is not finite\n"

    def test_multibeat_file_scores_like_single_beats(self, params_file, tmp_path,
                                                     capsys):
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=3)
        args = ["--params", params_file, "--seed", "4", "--samples", "3"]
        capsys.readouterr()
        assert run_cli(["score", "--input", str(out), *args]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        alone = []
        for k, beat in enumerate(read_beats_csv(out)):
            single = tmp_path / f"beat{k}.csv"
            write_beats_csv(single, [beat])
            assert run_cli(["score", "--input", str(single), *args]) == 0
            alone += capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        assert [r.partition(",")[2] for r in rows] == \
            [r.partition(",")[2] for r in alone]


class TestRefine:
    def test_multibeat_file_refines_like_single_beats(self, params_file,
                                                      tmp_path, capsys):
        rng = np.random.default_rng(4)
        beats = [Heartbeat(grid=SamplingGrid(500.0, 500),
                           leads=rng.uniform(-0.1, 0.1, (12, 500)))
                 for _ in range(3)]
        src, out = tmp_path / "noise.csv", tmp_path / "refined.csv"
        write_beats_csv(src, beats)
        args = ["--params", params_file, "--seed", "2", "--samples", "3"]
        assert run_cli(["refine", "--input", str(src), "--out", str(out),
                        *args]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        for k, beat in enumerate(beats):
            single, alone = tmp_path / f"noise{k}.csv", tmp_path / f"refined{k}.csv"
            write_beats_csv(single, [beat])
            assert run_cli(["refine", "--input", str(single), "--out",
                            str(alone), *args]) == 0
            mine = [r.partition(",")[2] for r in rows if r.startswith(f"{k},")]
            assert mine == alone.read_text(encoding="utf-8").splitlines()[1:]
        capsys.readouterr()

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

    @pytest.mark.parametrize("n_beats", [1, 2])
    def test_diverged_fit_prints_nothing(self, params_file, tmp_path, capsys,
                                         n_beats):
        src = tmp_path / "huge.csv"
        write_beats_csv(src, [Heartbeat(grid=SamplingGrid(500.0, 500),
                                        leads=np.full((12, 500), 1e300))] * n_beats)
        assert run_cli(["fit", "--input", str(src), "--init", params_file,
                        "--out", str(tmp_path / "o.params")]) == 3
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "o.params").exists()

    def test_unconverged_fits_print_nothing(self, params_file, tmp_path, capsys):
        rng = np.random.default_rng(3)
        src = tmp_path / "noise.csv"
        write_beats_csv(src, [Heartbeat(grid=SamplingGrid(500.0, 500),
                                        leads=rng.uniform(-0.1, 0.1, (12, 500)))
                              for _ in range(2)])
        assert run_cli(["fit", "--input", str(src), "--init", params_file,
                        "--max-iter", "1", "--out", str(tmp_path / "o.params")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "converged" in captured.err

    def test_unknown_lead_rejected_as_bad_input(self, zero_params_file, tmp_path):
        code = run_cli(["fit", "--input", "x.csv", "--lead", "QQ", "--init",
                        zero_params_file, "--out", str(tmp_path / "o.params")])
        assert code == 2


def _with_nan(lines):
    """Record lines with one lead II sample replaced by nan."""
    cells = lines[100].split(",")
    cells[2] = "nan"
    return lines[:100] + [",".join(cells)] + lines[101:]


class TestSegment:
    def test_segments_record_to_files(self, tmp_path, capsys, monkeypatch):
        from ecgdyn import cli, segmentation

        record, _ = make_jittered_record(seed=5)
        src = tmp_path / "record.csv"
        write_record_csv(src, record)
        out_dir = tmp_path / "cycles"
        detect, detected = segmentation.detect_r_peaks, []

        def counting(signal, fs):
            detected.append(detect(signal, fs))
            return detected[-1]

        monkeypatch.setattr(segmentation, "detect_r_peaks", counting)
        monkeypatch.setattr(cli, "detect_r_peaks", counting, raising=False)
        code = run_cli(["segment", "--input", str(src), "--length", "512",
                        "--out-dir", str(out_dir), "--class", "NORMAL"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,start,end,file"
        assert len(lines) == 10  # nine cycles
        # one detection serves both the cuts and the printed bounds
        assert len(detected) == 1
        assert [ln.split(",")[1:3] for ln in lines[1:]] == [
            [str(a), str(b)] for a, b in zip(detected[0][:-1], detected[0][1:])]
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

    # nine cycles: this process writes cycles 0-4, the helper cycles 5-8
    @staticmethod
    def _record(tmp_path, n_beats=10, seed=5):
        src = tmp_path / "record.csv"
        write_record_csv(src, make_jittered_record(n_beats=n_beats, seed=seed)[0])
        return src

    @staticmethod
    def _segment(src, out_dir, capsys, length=512):
        code = run_cli(["segment", "--input", str(src), "--length", str(length),
                        "--out-dir", str(out_dir), "--class", "NORMAL"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _spy_fork(monkeypatch):
        """The calls made to os.fork, which still forks."""
        calls, fork = [], os.fork

        def counting():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        return calls

    @staticmethod
    def _spy_pipe(monkeypatch):
        """The file descriptors os.pipe returns."""
        fds, pipe = [], os.pipe

        def spying():
            fds.extend(pipe())
            return fds[-2:]

        monkeypatch.setattr(os, "pipe", spying)
        return fds

    @staticmethod
    def _assert_closed(fds):
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_two_process_write_matches_serial(self, tmp_path, capsys, monkeypatch):
        src, out_dir = self._record(tmp_path), tmp_path / "cycles"
        forks = self._spy_fork(monkeypatch)
        forked = self._segment(src, out_dir, capsys)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert forked[0] == 0 and len(forks) == 1 and len(files) == 9
        shutil.rmtree(out_dir)
        monkeypatch.delattr(os, "fork")
        assert self._segment(src, out_dir, capsys) == forked
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files

    def test_helper_reaped_and_pipe_closed(self, tmp_path, capsys, monkeypatch):
        src = self._record(tmp_path)
        forks, fds = self._spy_fork(monkeypatch), self._spy_pipe(monkeypatch)
        assert self._segment(src, tmp_path / "cycles", capsys)[0] == 0
        assert len(forks) == 1 and len(fds) == 2
        self._assert_closed(fds)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_writes_serially(self, tmp_path, capsys, monkeypatch):
        src, out_dir = self._record(tmp_path), tmp_path / "cycles"
        want = self._segment(src, out_dir, capsys)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)

        def failing():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
        fds = self._spy_pipe(monkeypatch)
        assert self._segment(src, out_dir, capsys) == want
        assert len(fds) == 2
        self._assert_closed(fds)
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files

    @pytest.mark.parametrize("squatted", [[1], [6], [1, 6]],
                             ids=["first half", "second half", "both halves"])
    def test_squatted_cycle_fails_like_serial_loop(self, tmp_path, capsys,
                                                   monkeypatch, squatted):
        src, out_dir = self._record(tmp_path), tmp_path / "cycles"
        for k in squatted:
            (out_dir / f"record_cycle{k:03d}.csv").mkdir(parents=True)
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            code, out, err = self._segment(src, out_dir, capsys)
        assert code == 2 and out == ""
        assert f"record_cycle{squatted[0]:03d}.csv" in err
        forks = self._spy_fork(monkeypatch)
        assert self._segment(src, out_dir, capsys) == (code, out, err)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_dying_unreported_fails_the_call(self, tmp_path, capsys,
                                                    monkeypatch):
        src, out_dir = self._record(tmp_path), tmp_path / "cycles"
        write, parent = cli.write_beats_csv, os.getpid()

        def dying(path, beats):
            if os.getpid() != parent:
                os._exit(5)  # ends the helper before it can report anything
            write(path, beats)

        monkeypatch.setattr(cli, "write_beats_csv", dying)
        code, out, err = self._segment(src, out_dir, capsys)
        assert (code, out) == (2, "") and "cycle writer exited with 5" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_cycle_record_never_forks(self, tmp_path, capsys, monkeypatch):
        src, out_dir = self._record(tmp_path, n_beats=2, seed=0), tmp_path / "cycles"
        forks = self._spy_fork(monkeypatch)
        code, out, _ = self._segment(src, out_dir, capsys)
        assert code == 0 and len(out.splitlines()) == 2
        assert [p.name for p in out_dir.iterdir()] == ["record_cycle000.csv"]
        assert forks == []

    @pytest.mark.parametrize("fault, length, message", [
        (_with_nan, 512, "record samples must be finite"),
        (lambda lines: lines[:400], 512, "record must span at least one second"),
        (lambda lines: lines, 1, "target length must be at least 2"),
    ], ids=["one NaN sample", "under one second", "length 1"])
    def test_faulty_input_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                         fault, length, message):
        src, out_dir = self._record(tmp_path), tmp_path / "cycles"
        lines = src.read_text().splitlines()
        src.write_text("\n".join(fault(lines)) + "\n")
        forks = self._spy_fork(monkeypatch)
        code, out, err = self._segment(src, out_dir, capsys, length)
        assert (code, out) == (2, "") and message in err
        assert not out_dir.exists() and forks == []


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


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _old_beats(path):
    return [Heartbeat(grid=SamplingGrid(fs=fs, L=leads.shape[1]), leads=leads)
            for fs, leads in oracle.read_beats_csv(path)]


def _old_record(path):
    fs, channels = oracle.read_record_csv(path)
    return Record(fs=fs, channels=channels, id=path.stem)


def _outcome(read, path):
    """What a reader makes of a file: its result, or its error message."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _grid_rows(keys, fs=2.0, seed=0):
    """One CSV data line per key (None: no beat column); the sample index
    restarts whenever the key changes."""
    rng = np.random.default_rng(seed)
    lines = []
    for n, key in enumerate(keys):
        l = 0 if n == 0 or key != keys[n - 1] else l + 1
        cells = [f"{l / fs:.9f}"] + [repr(float(v)) for v in rng.standard_normal(12)]
        lines.append(("" if key is None else f"{key},") + ",".join(cells))
    return lines


_SINGLE = oracle.CSV_HEADER + "\n" + "\n".join(_grid_rows([None] * 4)) + "\n"
_MULTI = (oracle.CSV_MULTI_HEADER + "\n"
          + "\n".join(_grid_rows([0, 0, 0, 1, 1, 1])) + "\n")


def _cell(text, line, col, value=None):
    """text with cell ``col`` of 1-based line ``line`` replaced, or deleted
    when value is None."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    if value is None:
        del cells[col]
    else:
        cells[col] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def _second_beat_key(key):
    """The two-beat file with every row of its second beat keyed ``key``."""
    text = _MULTI
    for line in (5, 6, 7):
        text = _cell(text, line, 0, key)
    return text


#: Files on both sides of the array pass; each must read exactly as the
#: line parser it replaced reads it.
READER_CASES = {
    "plain multi": _MULTI,
    "plain single": _SINGLE,
    "column missing on line 4": _cell(_MULTI, 4, 13),
    "column added on line 4": _cell(_MULTI, 4, 13, "1.0,2.0"),
    "non-numeric cell": _cell(_MULTI, 3, 4, "abc"),
    "empty cell": _cell(_MULTI, 5, 2, ""),
    "last cell 1#2": _cell(_SINGLE, 3, 12, "1#2"),
    "beat 1.0": _cell(_MULTI, 5, 0, "1.0"),
    "beat 1_0": _second_beat_key("1_0"),
    "value 1_0.5": _cell(_SINGLE, 2, 3, "1_0.5"),
    "huge beat index": _second_beat_key(str(10 ** 20)),
    "padded cells": _cell(_cell(_MULTI, 2, 1, " 0.0\t"), 3, 0, " 0 "),
    "unit separator": _cell(_SINGLE, 2, 3, "1.5\x1f"),
    "CRLF": _MULTI.replace("\n", "\r\n"),
    "lone CR": _MULTI.replace("\n", "\r", 3),
    "form feed before comma": _cell(_SINGLE, 3, 1, "2.5\x0c"),
    "blank line before header": "\n" + _MULTI,
    "blank lines between rows": _MULTI.replace("\n", "\n\n  \n", 3),
    "empty line after header": _SINGLE.replace("\n", "\n\n", 1),
    "no trailing newline": _MULTI.rstrip("\n"),
    "UTF-8 BOM": "\ufeff" + _SINGLE,
    "non-ASCII digit": _cell(_SINGLE, 4, 6, "\u0663.5"),
    "line separator after a value": _cell(_SINGLE, 3, 2, "0.5\u2028"),
    "next line after a value": _cell(_SINGLE, 3, 2, "0.5\x85"),
    "header only": oracle.CSV_MULTI_HEADER + "\n",
    "header only, single": oracle.CSV_HEADER,
    "blank lines after header": oracle.CSV_HEADER + "\n\n\n",
    "single data row": oracle.CSV_HEADER + "\n" + _grid_rows([None])[0] + "\n",
    "non-contiguous beats": (oracle.CSV_MULTI_HEADER + "\n"
                             + "\n".join(_grid_rows([5, 5, 3, 3, 3, 5, 5])) + "\n"),
    "non-finite value": _cell(_SINGLE, 2, 4, "nan"),
    "decreasing time": _cell(_SINGLE, 5, 0, "-1.0"),
    "unknown header": _SINGLE.replace("V6", "V7", 1),
}


@pytest.mark.filterwarnings("error")
class TestCsvReader:
    """read_beats_csv and read_record_csv against the line parser."""

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_beats_match_line_parser(self, case, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        want = _outcome(_old_beats, path)
        got = _outcome(read_beats_csv, path)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert len(got) == len(want)
        for beat, old in zip(got, want):
            assert beat.grid == old.grid
            assert _bits(beat.leads) == _bits(old.leads)
            # the same memory layout keeps sums over the leads bit-identical
            assert beat.leads.strides == old.leads.strides

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_record_matches_line_parser(self, case, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        want = _outcome(_old_record, path)
        got = _outcome(read_record_csv, path)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert got.fs == want.fs
        assert _bits(got.channels) == _bits(want.channels)
        assert got.channels.strides == want.channels.strides

    def test_plain_file_skips_line_parser(self, tmp_path, monkeypatch):
        from ecgdyn import cli

        def refuse(path):
            raise AssertionError("line parser called on a plain file")

        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        monkeypatch.setattr(cli, "_parse_rows", refuse)
        assert len(read_beats_csv(path)) == 2

    def test_reading_peaks_below_twice_the_file(self, tmp_path):
        """The array pass holds the file once, plus about 0.43x for the
        parsed values; splitting the text into cells or decoding it to
        str would show here, not only in the benchmark's peak RSS."""
        rng = np.random.default_rng(4)
        record = Record(fs=500.0, channels=rng.standard_normal((12, 20000)),
                        id="big")
        path = tmp_path / "big.csv"
        write_record_csv(path, record)
        tracemalloc.start()
        try:
            back = read_record_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.channels, record.channels)
        assert peak <= 2 * path.stat().st_size

    def test_many_interleaved_beats_match_per_key_masks(self, tmp_path):
        """2000 beats, each in two runs of rows far apart: one stable sort
        groups them as a mask per key did, in order of first appearance."""
        rng = np.random.default_rng(5)
        keys = rng.choice(10 ** 6, 2000, replace=False) - 500_000
        rows = [(key, l) for key in rng.permutation(keys) for l in (0, 1)]
        rows += [(key, 2) for key in rng.permutation(keys)]
        path = tmp_path / "beats.csv"
        lines = [f"{key},{l / 2.0:.9f}," + ",".join(map(repr, values))
                 for (key, l), values in zip(rows, rng.standard_normal((6000, 12)).tolist())]
        path.write_text("\n".join([oracle.CSV_MULTI_HEADER, *lines, ""]), encoding="utf-8")
        keys, table = cli._read_table(path)
        want = [cli._beat_arrays(table[keys == key])
                for key in dict.fromkeys(keys.tolist())]
        got = read_beats_csv(path)
        assert len(got) == len(want) == 2000
        for beat, (fs, leads) in zip(got, want):
            assert beat.grid == SamplingGrid(fs, 3)
            assert _bits(beat.leads) == _bits(leads)
            assert beat.leads.strides == leads.strides


def _beats(values, n_beats=1, fs=500.0, L=None):
    """Beats holding ``values`` in order, cycled to fill 12 x L per beat."""
    L = L or max(2, -(-len(values) // 12))
    flat = np.resize(np.asarray(values, dtype=float), n_beats * 12 * L)
    return [Heartbeat(grid=SamplingGrid(fs, L), leads=chunk.reshape(12, L))
            for chunk in np.split(flat, n_beats)]


_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-7, 1e16, 1e22, -1e22,
                0.1 + 0.2, 1.0, 123456789.0, 2.0 ** -1074 * 3]


def _random_17_digit(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


class TestCsvWriter:
    """The writers against the row-by-row writers they replaced."""

    @pytest.mark.parametrize("n_beats", [1, 12])
    @pytest.mark.parametrize("fs, L", [(500.0, None), (491.37, None),
                                       (500.0, 2), (491.37, 2)])
    def test_beats_bytes_match(self, n_beats, fs, L, tmp_path):
        values = _EDGE_VALUES + list(_random_17_digit(300))
        beats = _beats(values, n_beats, fs, L)
        write_beats_csv(tmp_path / "new.csv", beats)
        oracle.write_beats_csv(tmp_path / "old.csv", beats)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_mixed_grid_beats_bytes_match(self, tmp_path):
        # each grid's time column is formatted once and shared by its beats
        values = _EDGE_VALUES + list(_random_17_digit(300))
        beats = [beat for fs, L in [(500.0, 30), (491.37, 30), (500.0, 7)]
                 for beat in _beats(values, 2, fs, L)]
        beats = beats[::2] + beats[1::2]
        write_beats_csv(tmp_path / "new.csv", beats)
        oracle.write_beats_csv(tmp_path / "old.csv", beats)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @staticmethod
    def _record_bytes_match(fs, n, tmp_path):
        values = np.resize(_EDGE_VALUES + list(_random_17_digit(12 * n, seed=1)),
                           12 * n)
        record = Record(fs=fs, channels=values.reshape(12, n), id="r")
        write_record_csv(tmp_path / "new.csv", record)
        oracle.write_record_csv(tmp_path / "old.csv", record)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @pytest.mark.parametrize("fs", [500.0, 491.37])
    def test_record_bytes_match(self, fs, tmp_path):
        self._record_bytes_match(fs, 600, tmp_path)

    @pytest.mark.parametrize("fs", [500.0, 491.37])
    def test_multi_block_record_bytes_match(self, fs, tmp_path):
        # three write blocks, the last one partial
        self._record_bytes_match(fs, 2 * cli._WRITE_BLOCK + 7, tmp_path)

    def test_record_write_peak_does_not_grow_with_length(self, tmp_path):
        """Writing goes out a block at a time, so a record ten times as
        long peaks at about the same size; building a whole record's text
        first would peak ten times as high."""
        rng = np.random.default_rng(6)
        peaks = []
        for n in (2 * cli._WRITE_BLOCK, 20 * cli._WRITE_BLOCK):
            record = Record(fs=500.0, channels=rng.standard_normal((12, n)),
                            id="long")
            tracemalloc.start()
            try:
                write_record_csv(tmp_path / "long.csv", record)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not hasattr(os, "copy_file_range"),
                    reason="the spill is appended with os.copy_file_range")
class TestSplitWriter:
    """A multi-beat file of over _WRITE_BLOCK samples: a forked helper
    writes the beats after the boundary nearest half the samples."""

    #: Five beats of 500 and 491.37 Hz. The split falls after beat 1, so
    #: each process formats the (500 Hz, 1000) time column; the helper's
    #: last beat is short enough to stay in its buffer until a flush.
    LENGTHS = ((500.0, 1000), (491.37, 1300), (500.0, 1000), (491.37, 794), (500.0, 2))

    def _beats(self, extra=0):
        values = _EDGE_VALUES + list(_random_17_digit(300))  # signed zeros among them
        lengths = [*self.LENGTHS[:-1], (500.0, self.LENGTHS[-1][1] + extra)]
        beats = [beat for fs, L in lengths for beat in _beats(values, 1, fs, L)]
        assert sum(beat.grid.L for beat in beats) == cli._WRITE_BLOCK + extra
        return beats

    @staticmethod
    def _die_in_helper(monkeypatch, helper, parent=None):
        """_write_rows, calling helper() first in a forked process and
        parent() first in this one."""
        rows, pid = cli._write_rows, os.getpid()

        def dying(*args):
            if os.getpid() != pid:
                helper()
            elif parent is not None:
                parent()
            rows(*args)

        monkeypatch.setattr(cli, "_write_rows", dying)

    @pytest.mark.parametrize("extra, forks", [(0, 0), (1, 1)],
                             ids=["one block", "one block and a sample"])
    def test_bytes_match(self, extra, forks, tmp_path, monkeypatch):
        beats = self._beats(extra)
        calls = TestSegment._spy_fork(monkeypatch)
        write_beats_csv(tmp_path / "new.csv", beats)
        oracle.write_beats_csv(tmp_path / "old.csv", beats)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())
        assert len(calls) == forks

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_without_fork_writes_serially(self, fork, tmp_path, monkeypatch):
        beats = self._beats(1)
        oracle.write_beats_csv(tmp_path / "old.csv", beats)
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            def failing():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", failing)
        fds = _open_fds()
        write_beats_csv(tmp_path / "new.csv", beats)
        assert _open_fds() == fds
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_helper_dying_unreported_fails_the_call(self, params_file, tmp_path,
                                                    capsys, monkeypatch):
        self._die_in_helper(monkeypatch, lambda: os._exit(5))
        code = synth(tmp_path / "beats.csv", params_file, beats=10)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "beat writer exited with 5" in captured.err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_exception_raised_here(self, tmp_path, monkeypatch):
        def full():
            raise OSError(errno.ENOSPC, "No space left on device")

        self._die_in_helper(monkeypatch, full)
        with pytest.raises(OSError) as caught:
            write_beats_csv(tmp_path / "beats.csv", self._beats(1))
        assert caught.value.errno == errno.ENOSPC
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_own_failure_wins_over_helper(self, tmp_path, monkeypatch):
        def full():
            raise OSError(errno.ENOSPC, "No space left on device")

        def own():
            raise ValueError("first half failed")

        self._die_in_helper(monkeypatch, full, own)
        with pytest.raises(ValueError, match="first half failed"):
            write_beats_csv(tmp_path / "beats.csv", self._beats(1))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_spill_never_listed(self, tmp_path, monkeypatch):
        out_dir, listed = tmp_path / "out", []
        out_dir.mkdir()

        def only_destination():
            names = os.listdir(out_dir)
            if names != ["beats.csv"]:  # raised here from the helper too
                raise AssertionError(f"listed {names}")
            listed.append(os.getpid())

        self._die_in_helper(monkeypatch, only_destination, only_destination)
        write_beats_csv(out_dir / "beats.csv", self._beats(1))
        assert listed and os.listdir(out_dir) == ["beats.csv"]

    def test_ten_beat_synthesize_forks_once(self, params_file, tmp_path, capsys,
                                            monkeypatch):
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            assert synth(tmp_path / "serial.csv", params_file, beats=10) == 0
        calls = TestSegment._spy_fork(monkeypatch)
        assert synth(tmp_path / "forked.csv", params_file, beats=10) == 0
        assert len(calls) == 1
        assert ((tmp_path / "forked.csv").read_bytes()
                == (tmp_path / "serial.csv").read_bytes())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
