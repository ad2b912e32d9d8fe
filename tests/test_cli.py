"""Command-line surface: subcommands, exit codes, formats, determinism."""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import naive_reference as oracle
from helpers import MIXED_RHYTHMS, make_jittered_record, with_rhythms
from ecgdyn import cli, fidelity
from ecgdyn.cli import (read_beats_csv, read_record_csv, run_cli,
                        write_beats_csv, write_record_csv)
from ecgdyn.integrate import SamplingGrid, beat_grid
from ecgdyn.leads import FREE_LEADS, LEAD_NAMES, Heartbeat, synthesize_heartbeat
from ecgdyn.params import (_draw, default_distributions, default_param_path,
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


@pytest.fixture(autouse=True)
def _no_held_beat_file():
    """Each test starts and ends with read_beats_csv holding no parse, so no
    test reads another's file from the memo."""
    cli._HELD.clear()
    yield
    cli._HELD.clear()


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


class TestParserMemo:
    """run_cli keeps one parser per subcommand, and one for every other
    call, per process; build_parser still builds anew."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_repeated_subcommand_builds_its_parser_once(self, tmp_path, capsys,
                                                        monkeypatch):
        build, built = cli.build_parser, []

        def counting(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", counting)
        argv = ["check", "--input", str(tmp_path / "missing.csv")]
        assert run_cli(argv) == run_cli(argv) == 2
        assert built == ["check"]

    def test_memo_holds_at_most_one_parser_per_subcommand_and_one_more(self, capsys):
        for k in range(100):
            assert run_cli([f"frobnicate{k}"]) == 1
        for name in cli._COMMANDS:
            assert run_cli([name, "--help"]) == 0
        assert run_cli(["--version"]) == 0
        assert run_cli([]) == 1
        info = cli._parser.cache_info()
        assert (info.currsize, info.misses) == (7, 7)
        assert info.maxsize == len(cli._COMMANDS) + 1 == 7

    @pytest.mark.parametrize("command", ["fit", None])
    def test_build_parser_returns_a_new_parser(self, command):
        parsers = [cli.build_parser(command), cli.build_parser(command),
                   cli._parser(command)]
        assert len(set(map(id, parsers))) == 3

    def test_repeated_call_carries_nothing_over(self, zero_params_file, tmp_path,
                                                capsys):
        src = tmp_path / "beat.csv"
        assert synth(src, zero_params_file) == 0
        capsys.readouterr()
        argv = ["score", "--input", str(src), "--params", zero_params_file]
        outputs = []
        for extra in (["--delta", "0.3"], [], ["--delta", "0.6"]):
            assert run_cli([*argv, *extra]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[2] != outputs[0]

    def test_usage_help_and_version_unchanged_by_a_call(self, zero_params_file,
                                                        tmp_path, capsys):
        cases = [["fit"], ["fit", "--help"], ["--version"]]

        def outcomes():
            got = []
            for argv in cases:
                code = run_cli(argv)
                got.append((code, *capsys.readouterr()))
            return got

        fresh = [TestUsageErrors._parse(cli.build_parser(), argv, capsys)
                 for argv in cases]
        assert [code for code, _, _ in fresh] == [1, 0, 0]
        before = outcomes()
        src = tmp_path / "beat.csv"
        assert synth(src, zero_params_file) == 0
        assert run_cli(["fit", "--input", str(src), "--init", zero_params_file,
                        "--max-iter", "50", "--out", str(tmp_path / "fit.params")]) == 0
        capsys.readouterr()
        assert outcomes() == before == fresh


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

    def test_beats_follow_draw_stream(self, params_file, tmp_path, capsys):
        # beat k is synthesize_heartbeat of _draw's free-lead draw from
        # default_rng((seed, k)), one generator a beat, bit for bit
        out, want = tmp_path / "cli.csv", tmp_path / "want.csv"
        assert synth(out, params_file, beats=3, seed=11) == 0
        capsys.readouterr()
        dists = [default_distributions()[("NORMAL", lead)] for lead in LEAD_NAMES]
        grid = beat_grid(500.0, dists[1].rhythm.f)
        free = [LEAD_NAMES.index(lead) for lead in FREE_LEADS]
        beats = []
        for k in range(3):
            params, gains = _draw(dists, 1, np.random.default_rng((11, k)))
            beats.append(synthesize_heartbeat(
                dict(zip(FREE_LEADS, params[0, free])), dists[1].rhythm, grid,
                gains=dict(zip(FREE_LEADS, gains[0, free].tolist()))))
        write_beats_csv(want, beats)
        assert out.read_bytes() == want.read_bytes()

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

    @pytest.mark.parametrize("fs", ["inf", "nan"])
    def test_non_finite_fs_rejected(self, params_file, tmp_path, capsys, fs):
        out = tmp_path / "none.csv"
        code = run_cli(["synthesize", "--params", params_file, "--class",
                        "NORMAL", "--fs", fs, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sampling frequency" in captured.err

    @pytest.mark.parametrize("rhythms, lead", [
        (MIXED_RHYTHMS, "I"), ({"aVR": MIXED_RHYTHMS["aVR"]}, "aVR"),
    ], ids=["first of three", "derived lead alone"])
    def test_mixed_rhythms_rejected(self, tmp_path, capsys, rhythms, lead):
        # every lead runs at lead II's rhythm, while score reads each
        # lead's own: such a beat would score far from zero
        params, out = tmp_path / "mixed.params", tmp_path / "none.csv"
        params.write_text(write_param_file(with_rhythms(
            zero_variance(default_distributions()), rhythms)), encoding="utf-8")
        assert synth(out, str(params)) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ecgdyn: lead {lead} has RhythmParams(")

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

    @pytest.mark.parametrize("tol, code", [("nan", 2), ("-1", 2), ("inf", 0)])
    def test_tol_validated_before_header(self, params_file,
                                        tmp_path, capsys, tol, code):
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=2)
        capsys.readouterr()
        assert run_cli(["check", "--input", str(out), "--tol", tol]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert "--tol" in captured.err
        else:
            assert captured.out.count("pass") == 2 * 6


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

    @pytest.mark.parametrize("fs", ["257.3", "128.5"])
    def test_zero_variance_self_score_at_non_integer_rate(
            self, zero_params_file, tmp_path, capsys, fs):
        # the rate goes through the file's 9-decimal time column and back;
        # at every delta the combined score and every per-lead column vanish
        out = tmp_path / "beat.csv"
        assert run_cli(["synthesize", "--params", zero_params_file, "--class",
                        "NORMAL", "--fs", fs, "--seed", "3", "--out", str(out)]) == 0
        for delta in ("0", "0.6", "1"):
            capsys.readouterr()
            assert run_cli(["score", "--input", str(out), "--params",
                            zero_params_file, "--delta", delta, "--seed", "3"]) == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert len(row) == 14
            assert max(float(v) for v in row[1:]) <= 1e-12

    def test_multibeat_rows(self, params_file, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=3)
        capsys.readouterr()
        assert run_cli(["score", "--input", str(out), "--params", params_file,
                        "--samples", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_output_independent_of_seed_and_samples(self, params_file, tmp_path,
                                                   capsys):
        # the score is an exact expectation: --seed and --samples are
        # checked and bind nothing
        out = tmp_path / "beats.csv"
        synth(out, params_file, beats=2)
        outputs = set()
        for flags in ([], ["--seed", "1", "--samples", "8"],
                      ["--seed", "2", "--samples", "64"], ["--samples", "1"]):
            capsys.readouterr()
            assert run_cli(["score", "--input", str(out), "--params", params_file,
                            *flags]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

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
        (["--seed", "-1"], "non-negative"),
    ], ids=["class not in table", "bad class code", "zero samples",
            "negative samples", "negative seed"])
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
    @pytest.mark.parametrize("flags, message", [
        (["--class", "FOO"], "FOO"),
        (["--class", "bad"], "uppercase"),
        (["--samples", "0"], "--samples"),
        (["--samples", "-2"], "--samples"),
        (["--steps", "0"], "ecgdyn: --steps must be >= 1, got 0\n"),
        (["--seed", "-1"], "non-negative"),
    ], ids=["class not in table", "bad class code", "zero samples",
            "negative samples", "zero steps", "negative seed"])
    def test_bad_request_fails_before_output(self, params_file, tmp_path, capsys,
                                             flags, message):
        src, out = tmp_path / "beat.csv", tmp_path / "refined.csv"
        synth(src, params_file)
        capsys.readouterr()
        assert run_cli(["refine", "--input", str(src), "--params", params_file,
                        "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

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

    def test_output_independent_of_seed_and_samples(self, params_file, tmp_path,
                                                   capsys):
        # two refines with new seeds in one process build the term list
        # once and write the same bytes
        rng = np.random.default_rng(5)
        src = tmp_path / "noise.csv"
        write_beats_csv(src, [Heartbeat(grid=SamplingGrid(500.0, 500),
                                        leads=rng.uniform(-0.1, 0.1, (12, 500)))])
        fidelity._build_mc_terms.cache_clear()
        outputs = set()
        for k, flags in enumerate((["--seed", "1", "--samples", "8"],
                                   ["--seed", "2", "--samples", "64"])):
            out = tmp_path / f"refined{k}.csv"
            assert run_cli(["refine", "--input", str(src), "--params", params_file,
                            "--out", str(out), *flags]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1
        assert fidelity._build_mc_terms.cache_info().misses == 1
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
    @pytest.mark.parametrize("flags, message", [
        (["--max-iter", "0"], "ecgdyn: --max-iter must be >= 1, got 0\n"),
        (["--max-iter", "-3"], "ecgdyn: --max-iter must be >= 1, got -3\n"),
    ], ids=["zero max-iter", "negative max-iter"])
    def test_bad_request_fails_before_output(self, params_file, tmp_path, capsys,
                                             flags, message):
        src, out = tmp_path / "beat.csv", tmp_path / "fit.params"
        synth(src, params_file)
        capsys.readouterr()
        assert run_cli(["fit", "--input", str(src), "--init", params_file,
                        "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert not out.exists()

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

    def test_record_with_rows_cut_out_writes_nothing(self, tmp_path, capsys):
        # a 2 s gap would otherwise pass as one long cycle among the rest
        src, out_dir = self._record(tmp_path, n_beats=60), tmp_path / "cycles"
        lines = src.read_text().splitlines()
        src.write_text("\n".join(lines[:10001] + lines[11001:]) + "\n")
        code, out, err = self._segment(src, out_dir, capsys)
        assert (code, out) == (2, "")
        assert err == f"ecgdyn: {_OFF_GRID.format(10000, 22.0, 19.998)}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("fault, length, message", [
        (_with_nan, 512, "ecgdyn: lead II sample 99 is not finite (nan)\n"),
        (lambda lines: lines[:400], 512, "record must span at least one second"),
        (lambda lines: lines, 1, "target length must be at least 2"),
        (None, 1, "target length must be at least 2"),
    ], ids=["one NaN sample", "under one second", "length 1",
            "length 1 of a missing file"])
    def test_faulty_input_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                         fault, length, message):
        src, out_dir = self._record(tmp_path), tmp_path / "cycles"
        lines = src.read_text().splitlines()
        if fault is None:  # the request is checked before the input is read
            src.unlink()
        else:
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


def _refuse(path, data):
    """Stands in for the line parser where the orjson pass must read."""
    raise AssertionError(f"line parser called on {path}")


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


def _times(text, stamps):
    """text with the time cells of its first data lines set to stamps."""
    for line, stamp in enumerate(stamps, start=2):
        text = _cell(text, line, 0, stamp)
    return text


def _beat_key(key, beat=1):
    """The two-beat file with every row of one beat keyed ``key``."""
    text = _MULTI
    for line in range(2 + 3 * beat, 5 + 3 * beat):
        text = _cell(text, line, 0, key)
    return text


#: Files longer than one read block, single and multi: a row straddles the
#: first block edge, which falls mid-line.
_LONG = oracle.CSV_HEADER + "\n" + "\n".join(_grid_rows([None] * 600, seed=1)) + "\n"
_LONG_MULTI = (oracle.CSV_MULTI_HEADER + "\n"
               + "\n".join(_grid_rows([0] * 300 + [1] * 300, seed=2)) + "\n")


def _edge_line(text):
    """The 1-based line of text that holds the first read block's edge."""
    edge = text.index("\n") + 1 + cli._READ_BLOCK
    assert text[edge - 1] != "\n" and text[edge] != "\n"
    return text.count("\n", 0, edge) + 1


#: Files on both sides of the orjson pass; each must read exactly as the
#: line parser reads it.
READER_CASES = {
    "plain multi": _MULTI,
    "plain single": _SINGLE,
    "column missing on line 4": _cell(_MULTI, 4, 13),
    "column added on line 4": _cell(_MULTI, 4, 13, "1.0,2.0"),
    "non-numeric cell": _cell(_MULTI, 3, 4, "abc"),
    "empty cell": _cell(_MULTI, 5, 2, ""),
    "last cell 1#2": _cell(_SINGLE, 3, 12, "1#2"),
    "beat 1.0": _cell(_MULTI, 5, 0, "1.0"),
    "beat 1_0": _beat_key("1_0"),
    "value 1_0.5": _cell(_SINGLE, 2, 3, "1_0.5"),
    "huge beat index": _beat_key(str(10 ** 20)),
    "padded cells": _cell(_cell(_MULTI, 2, 1, " 0.0\t"), 3, 0, " 0 "),
    "unit separator": _cell(_SINGLE, 2, 3, "1.5\x1f"),
    "CRLF": _MULTI.replace("\n", "\r\n"),
    "lone CR": _MULTI.replace("\n", "\r", 3),
    "form feed before comma": _cell(_SINGLE, 3, 1, "2.5\x0c"),
    "blank line before header": "\n" + _MULTI,
    "blank lines between rows": _MULTI.replace("\n", "\n\n  \n", 3),
    # errors name physical lines: the blank ones count
    "column missing after blank lines": _cell(_MULTI, 4, 13).replace("\n", "\n\n  \n", 2),
    "non-numeric cell after CRLF blank lines": _cell(_SINGLE, 4, 3, "abc").replace(
        "\n", "\r\n\r\n", 2),
    "empty line after header": _SINGLE.replace("\n", "\n\n", 1),
    "no trailing newline": _MULTI.rstrip("\n"),
    "UTF-8 BOM": "\ufeff" + _SINGLE,
    "non-ASCII digit": _cell(_SINGLE, 4, 6, "\u0663.5"),
    "line separator after a value": _cell(_SINGLE, 3, 2, "0.5\u2028"),
    "next line after a value": _cell(_SINGLE, 3, 2, "0.5\x85"),
    "header only": oracle.CSV_MULTI_HEADER + "\n",
    "header only, single": oracle.CSV_HEADER,
    "blank lines after header": oracle.CSV_HEADER + "\n\n\n",
    "one blank line after header": oracle.CSV_HEADER + "\n\n",
    "single data row": oracle.CSV_HEADER + "\n" + _grid_rows([None])[0] + "\n",
    "non-contiguous beats": (oracle.CSV_MULTI_HEADER + "\n"
                             + "\n".join(_grid_rows([5, 5, 3, 3, 3, 5, 5])) + "\n"),
    "non-finite value": _cell(_SINGLE, 2, 4, "nan"),
    "decreasing time": _cell(_SINGLE, 5, 0, "-1.0"),
    "time off the grid": _cell(_SINGLE, 5, 0, "3.0"),
    "time step overflows": _times(_SINGLE, ["-1.7e308", "1.7e308", "1.75e308",
                                            "1.79e308"]),
    "unknown header": _SINGLE.replace("V6", "V7", 1),
    "time span overflows": _times(_SINGLE, ["-1.5e308", "-5e307", "5e307", "1.5e308"]),
    "time span of subnormals": _times(_SINGLE, ["0.0", "5e-324", "1e-323", "1.5e-323"]),
    # tokens JSON reads and float() rejects
    **{f"value {token}": _cell(_SINGLE, 3, 5, token)
       for token in ("true", "null", '"1.5"', "[1]")},
    # number forms JSON and float() treat differently, or that parse alike
    **{f"value {token}": _cell(_MULTI, 6, 7, token)
       for token in ("+1", ".5", "1.", "01", "1e400", "-1e400", "-0", "0", "-0.0",
                     "1E5", "4.9e-324", "1e-400", "-1e-400", "1e+05", "1e-05",
                     "1234567890123456789012345", "18446744073709551615")},
    "time -0": _cell(_SINGLE, 2, 0, "-0"),
    # numpy broadcasts a row of one cell to any width
    "rows of one cell": oracle.CSV_HEADER + "\n0.0\n0.5\n1.0\n",
    "rows of one cell, multi": oracle.CSV_MULTI_HEADER + "\n0\n0\n1\n",
    "beat -0": _beat_key("-0", beat=0),
    "beats 2**53 and 2**53 + 1": _beat_key(str(2 ** 53 + 1)).replace(
        "\n0,", f"\n{2 ** 53},"),
    "beat 9007199254740993": _beat_key("9007199254740993"),
    "beat 2**63": _beat_key(str(2 ** 63)),
    "beat 2**63 - 1": _beat_key(str(2 ** 63 - 1)),
    "beat -2**63": _beat_key(str(-2 ** 63), beat=0),
    "beat 1e0": _beat_key("1e0"),
    # read blocks: rows across an edge, a fault on the edge's row, a line
    # longer than a block
    "rows across a block edge": _LONG,
    "beats across a block edge": _LONG_MULTI,
    "non-numeric cell on a block edge": _cell(_LONG, _edge_line(_LONG), 4, "abc"),
    "value -0 on a block edge": _cell(_LONG_MULTI, _edge_line(_LONG_MULTI), 9, "-0"),
    "column missing on a block edge": _cell(_LONG_MULTI, _edge_line(_LONG_MULTI), 13),
    # faults away from a block's first row, which a check of that row alone or
    # of the block's cell count would miss
    "column added on a block edge": _cell(_LONG_MULTI, _edge_line(_LONG_MULTI), 13,
                                          "1.0,2.0"),
    "column moved from the row before a block edge": _cell(
        _cell(_LONG_MULTI, _edge_line(_LONG_MULTI) - 1, 13), _edge_line(_LONG_MULTI),
        13, "1.0,2.0"),
    "row of one cell before a block edge": _LONG.replace(
        _LONG.split("\n")[_edge_line(_LONG) - 1], "0.5"),
    **{f"value {token} on a block edge": _cell(_LONG, _edge_line(_LONG), 5, token)
       for token in ("true", "null", '"1.5"')},
    "line longer than a block": _cell(_LONG, 300, 2, "1." + "0" * (1 << 17)),
    "line longer than a block, first": _cell(_LONG, 2, 2, "0." + "0" * (1 << 17) + "5"),
    "line longer than a block, last": _cell(_LONG, 601, 12, "-1." + "1" * (1 << 17)),
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
        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        monkeypatch.setattr(cli, "_parse_rows", _refuse)
        assert len(read_beats_csv(path)) == 2

    @pytest.mark.parametrize("case", ["rows across a block edge",
                                      "beats across a block edge",
                                      "line longer than a block"])
    def test_long_plain_file_skips_line_parser(self, case, tmp_path, monkeypatch):
        path = tmp_path / "beats.csv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        monkeypatch.setattr(cli, "_parse_rows", _refuse)
        assert read_beats_csv(path)

    @pytest.mark.parametrize("case", ["header only", "header only, single",
                                      "blank lines after header",
                                      "one blank line after header"])
    def test_no_rows_read_as_empty_table(self, case, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        keys, table = cli._read_table(path, path.read_bytes())
        assert keys.shape == (0,) and table.shape == (0, 13)

    def test_declined_file_read_once(self, tmp_path, monkeypatch):
        # CRLF declines the orjson pass; the line parser takes the same bytes
        path = tmp_path / "beats.csv"
        path.write_bytes(_MULTI.replace("\n", "\r\n").encode("utf-8"))
        reads = []

        def counted(method):
            def read(self, *args, **kwargs):
                reads.append(self)
                return method(self, *args, **kwargs)
            return read

        for name in ("read_bytes", "read_text"):
            monkeypatch.setattr(Path, name, counted(getattr(Path, name)))
        got = read_beats_csv(path)
        assert reads == [path]
        assert [_bits(b.leads) for b in got] == \
            [_bits(b.leads) for b in _old_beats(path)]

    def test_reading_peaks_below_twice_the_file(self, tmp_path):
        """The orjson pass holds the file once, plus about 0.43x for the
        parsed values and one read block's text, objects and cells: 1.5x in all.
        Parsing the whole file at once, splitting its text into cells or
        decoding it to str would show here, not only in the benchmark's
        peak RSS."""
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
        keys, table = cli._read_table(path, path.read_bytes())
        want = [cli._beat_arrays(table[keys == key])
                for key in dict.fromkeys(keys.tolist())]
        got = read_beats_csv(path)
        assert len(got) == len(want) == 2000
        for beat, (fs, leads) in zip(got, want):
            assert beat.grid == SamplingGrid(fs, 3)
            assert _bits(beat.leads) == _bits(leads)
            assert beat.leads.strides == leads.strides

    def test_line_numbers_count_blank_lines(self, tmp_path):
        """Two blank lines after the first row: the 3-column row is line 6,
        as a text editor and the UTF-8 error count it."""
        path = tmp_path / "blank.csv"
        first, second = _grid_rows([None] * 2)
        path.write_text("\n".join([oracle.CSV_HEADER, first, "", "", second,
                                   "0.0,1.0,2.0", ""]), encoding="utf-8")
        for read in (read_beats_csv, read_record_csv, _old_beats):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == f"{path}:6: expected 13 columns"


@pytest.mark.filterwarnings("error")
class TestBeatFileMemo:
    """read_beats_csv holds the parse of the last beat file it read, keyed
    by the file's bytes; the next read of the same bytes takes it."""

    @staticmethod
    def _fresh(path):
        """The file's beats as a read with nothing held returns them."""
        cli._HELD.clear()
        try:
            return read_beats_csv(path)
        finally:
            cli._HELD.clear()

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for beat, old in zip(got, want):
            assert beat.grid == old.grid
            assert _bits(beat.leads) == _bits(old.leads)
            assert beat.leads.strides == old.leads.strides

    def test_file_read_twice_parses_once(self, tmp_path, monkeypatch):
        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        parse, parsed = cli._read_table, []

        def counting(*args):
            parsed.append(args[0])
            return parse(*args)

        monkeypatch.setattr(cli, "_read_table", counting)
        first, second = read_beats_csv(path), read_beats_csv(path)
        assert parsed == [path]
        self._same(second, first)

    def test_rewrite_of_the_same_length_reads_new_values(self, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        old = read_beats_csv(path)
        cells = _MULTI.split("\n")[3].split(",")
        digit = "1" if cells[5][-1] != "1" else "2"
        text = _cell(_MULTI, 4, 5, cells[5][:-1] + digit)
        assert len(text) == len(_MULTI) and text != _MULTI
        path.write_text(text, encoding="utf-8")
        got = read_beats_csv(path)
        self._same(got, self._fresh(path))
        self._same(got, _old_beats(path))
        assert _bits(got[0].leads) != _bits(old[0].leads)

    @pytest.mark.parametrize("case", ["plain multi", "plain single", "CRLF",
                                      "beats across a block edge"])
    def test_hit_and_miss_match_a_fresh_parse(self, case, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        want = _old_beats(path)
        miss = read_beats_csv(path)
        assert len(cli._HELD) == 1
        hit = read_beats_csv(path)
        assert cli._HELD == []
        for got in (miss, hit):
            self._same(got, want)
            self._same(got, self._fresh(path))

    def test_label_is_set_per_call(self, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        assert [b.label for b in read_beats_csv(path, label="NORMAL")] == ["NORMAL"] * 2
        assert [b.label for b in read_beats_csv(path)] == [None] * 2

    def test_changing_returned_leads_leaves_the_next_read(self, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        want = self._fresh(path)
        for _ in range(3):  # a miss, then a hit, then a miss again
            beats = read_beats_csv(path)
            self._same(beats, want)
            for beat in beats:
                beat.leads[:] = 7.0

    def test_malformed_file_raises_each_call_and_is_not_held(self, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_text(_cell(_MULTI, 4, 13), encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                read_beats_csv(path)
            assert str(err.value) == f"{path}:4: expected 14 columns"
            assert cli._HELD == []

    def test_failed_read_drops_the_held_parse(self, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(_MULTI, encoding="utf-8")
        bad.write_text(oracle.CSV_MULTI_HEADER + "\n", encoding="utf-8")
        read_beats_csv(good)
        with pytest.raises(ValueError, match="no beats$"):
            read_beats_csv(bad)
        assert cli._HELD == []

    def test_one_file_held_at_most(self, tmp_path):
        paths = [tmp_path / f"beats{k}.csv" for k in range(3)]
        for k, path in enumerate(paths):
            rows = _grid_rows([None] * 3, seed=k)
            path.write_text("\n".join([oracle.CSV_HEADER, *rows, ""]), encoding="utf-8")
            read_beats_csv(path)
            assert [data for data, _ in cli._HELD] == [path.read_bytes()]

    def test_records_are_never_held(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(_SINGLE, encoding="utf-8")
        read_record_csv(path)
        read_record_csv(path)
        assert cli._HELD == []
        read_beats_csv(path)
        held = list(cli._HELD)
        read_record_csv(path)
        assert cli._HELD == held

    def test_no_two_threads_get_one_parse(self, tmp_path):
        path = tmp_path / "beats.csv"
        path.write_text(_MULTI, encoding="utf-8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch inside a read
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(read_beats_csv, path) for _ in range(200)]
                reads = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        leads = [beat.leads for beats in reads for beat in beats]
        # every array is alive, so distinct arrays have distinct ids
        assert len({id(a if a.base is None else a.base) for a in leads}) == len(leads)
        for beats in reads:
            self._same(beats, reads[0])

    def test_score_after_check_prints_what_a_fresh_score_prints(
            self, params_file, tmp_path, capsys):
        path = tmp_path / "beats.csv"
        assert synth(path, params_file, beats=2) == 0
        score = ["score", "--input", str(path), "--params", params_file]
        capsys.readouterr()
        assert run_cli(score) == 0
        fresh = capsys.readouterr()
        assert cli._HELD != []  # score's read was a miss and holds its parse
        cli._HELD.clear()
        assert run_cli(["check", "--input", str(path)]) == 0
        capsys.readouterr()
        assert run_cli(score) == 0  # takes check's parse
        assert cli._HELD == []
        assert capsys.readouterr() == fresh

_STRICT = "time must increase strictly: sample {} at {} after {}"
_OFF_GRID = "time is off the uniform grid: sample {} at {} after {}"
_SPAN = "time span from {} to {} gives no finite sampling rate"

#: Edits of a 500 Hz beat's 500 data lines, with the error they cause.
_TIME_FAULTS = {
    "duplicated row": (lambda rows: rows[:8] + rows[7:],
                       _STRICT.format(8, 0.014, 0.014)),
    "swapped rows": (lambda rows: rows[:7] + [rows[8], rows[7]] + rows[9:],
                     _STRICT.format(8, 0.014, 0.016)),
    "NaN stamp": (lambda rows: rows[:7] + [_set_time(rows[7], "nan")] + rows[8:],
                  _STRICT.format(7, "nan", 0.012)),
    "last stamp 1e300": (lambda rows: rows[:-1] + [_set_time(rows[-1], "1e300")],
                         _OFF_GRID.format(499, 1e300, 0.996)),
    "last stamp inf": (lambda rows: rows[:-1] + [_set_time(rows[-1], "inf")],
                       _OFF_GRID.format(499, "inf", 0.996)),
    "rows cut out": (lambda rows: rows[:100] + rows[300:],
                     _OFF_GRID.format(100, 0.6, 0.198)),
    # uniform steps whose span overflows, or whose rate does
    "span past the float range": (
        lambda rows: [_set_time(r, repr((l - 250) * 4e305)) for l, r in enumerate(rows)],
        _SPAN.format(-250 * 4e305, 249 * 4e305)),
    "span of subnormals": (
        lambda rows: [_set_time(r, repr(l * 5e-324)) for l, r in enumerate(rows)],
        _SPAN.format(0.0, 499 * 5e-324)),
}


def _set_time(line, stamp):
    """A data line with its time cell (after the beat key, if any) replaced."""
    cells = line.split(",")
    cells[len(cells) - 13] = stamp
    return ",".join(cells)


def _time_fault(path, fault, beat):
    """Apply a _TIME_FAULTS edit to the rows of the beat'th beat of a 500 Hz
    file of 500-sample beats; returns the message's tail."""
    edit, tail = _TIME_FAULTS[fault]
    header, *rows = path.read_text().splitlines()
    start = 500 * beat
    rows[start:start + 500] = edit(rows[start:start + 500])
    path.write_text("\n".join([header, *rows, ""]))
    return tail


@pytest.mark.parametrize("fault", sorted(_TIME_FAULTS))
class TestTimeColumn:
    """Every beat's time column must increase strictly, in steps within
    half the median step of it: a repeated, swapped, NaN or off-grid stamp
    is an error naming the beat key, the sample and both stamps, in both
    readers and in the line parser's oracle."""

    def test_beat_reader_names_beat(self, fault, params_file, tmp_path, capsys):
        path = tmp_path / "beats.csv"
        synth(path, params_file, beats=2)
        tail = _time_fault(path, fault, beat=1)
        for read in (read_beats_csv, _old_beats):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == f"beat 1: {tail}"

    def test_record_reader(self, fault, params_file, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        synth(path, params_file, beats=1)
        tail = _time_fault(path, fault, beat=0)
        for read in (read_record_csv, _old_record):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == tail
        with pytest.raises(ValueError, match=f"^beat 0: {re.escape(tail)}$"):
            read_beats_csv(path)

    def test_commands_exit_two(self, fault, params_file, tmp_path, capsys):
        beats, record = tmp_path / "beats.csv", tmp_path / "rec.csv"
        synth(beats, params_file, beats=2)
        synth(record, params_file, beats=1)
        tail = _time_fault(beats, fault, beat=1)
        _time_fault(record, fault, beat=0)
        capsys.readouterr()
        calls = [["score", "--input", str(beats), "--params", params_file],
                 ["check", "--input", str(beats)],
                 ["fit", "--input", str(beats), "--init", params_file,
                  "--out", str(tmp_path / "fit.params")],
                 ["refine", "--input", str(beats), "--params", params_file,
                  "--out", str(tmp_path / "refined.csv")]]
        for argv in calls:
            assert run_cli(argv) == 2
            assert capsys.readouterr() == ("", f"ecgdyn: beat 1: {tail}\n")
        assert run_cli(["segment", "--input", str(record),
                        "--out-dir", str(tmp_path / "cycles")]) == 2
        assert capsys.readouterr() == ("", f"ecgdyn: {tail}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beats.csv", "rec.csv"]


def _lead_fault(path, beat, lead, sample, value):
    """Set one lead sample of the beat'th beat of a file of 500-sample beats."""
    header, *rows = path.read_text().splitlines()
    line = 500 * beat + sample
    cells = rows[line].split(",")
    cells[header.split(",").index(lead)] = value
    rows[line] = ",".join(cells)
    path.write_text("\n".join([header, *rows, ""]))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
class TestLeadSamples:
    """A NaN or infinite lead sample is an error naming the beat key, the
    lead and the sample, in both readers, in the line parser's oracle and
    in every command that reads a file."""

    def test_readers_name_sample(self, value, params_file, tmp_path):
        beats, record = tmp_path / "beats.csv", tmp_path / "rec.csv"
        synth(beats, params_file, beats=2)
        synth(record, params_file, beats=1)
        _lead_fault(beats, 1, "aVR", 199, value)
        _lead_fault(record, 0, "II", 123, value)
        for read in (read_beats_csv, _old_beats):
            with pytest.raises(ValueError) as err:
                read(beats)
            assert str(err.value) == f"beat 1: lead aVR sample 199 is not finite ({value})"
        for read in (read_record_csv, _old_record):
            with pytest.raises(ValueError) as err:
                read(record)
            assert str(err.value) == f"lead II sample 123 is not finite ({value})"

    def test_first_bad_sample_in_file_order(self, value, params_file, tmp_path):
        path = tmp_path / "beats.csv"
        synth(path, params_file, beats=2)
        for lead, sample in [("aVF", 300), ("V6", 200), ("III", 200), ("V1", 200)]:
            _lead_fault(path, 0, lead, sample, value)
        for read in (read_beats_csv, _old_beats):
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == f"beat 0: lead III sample 200 is not finite ({value})"

    def test_commands_exit_two(self, value, params_file, tmp_path, capsys):
        beats, record = tmp_path / "beats.csv", tmp_path / "rec.csv"
        synth(beats, params_file, beats=2)
        synth(record, params_file, beats=1)
        _lead_fault(beats, 1, "aVR", 199, value)
        _lead_fault(record, 0, "II", 123, value)
        capsys.readouterr()
        calls = [["score", "--input", str(beats), "--params", params_file],
                 ["check", "--input", str(beats)],
                 ["fit", "--input", str(beats), "--init", params_file,
                  "--out", str(tmp_path / "fit.params")],
                 ["refine", "--input", str(beats), "--params", params_file,
                  "--out", str(tmp_path / "refined.csv")]]
        for argv in calls:
            assert run_cli(argv) == 2
            assert capsys.readouterr() == (
                "", f"ecgdyn: beat 1: lead aVR sample 199 is not finite ({value})\n")
        assert run_cli(["segment", "--input", str(record),
                        "--out-dir", str(tmp_path / "cycles")]) == 2
        assert capsys.readouterr() == (
            "", f"ecgdyn: lead II sample 123 is not finite ({value})\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beats.csv", "rec.csv"]


def _latin1_line(path, line, newline="\n"):
    """Rewrite path's text with newline endings and a Latin-1 é after the
    first character of the 1-based line; returns the é's byte offset."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = lines[line - 1][:1] + "é" + lines[line - 1][1:]
    data = newline.join([*lines, ""]).encode("latin-1")
    path.write_bytes(data)
    return data.index(b"\xe9")


class TestNotUtf8:
    """A byte that is not UTF-8 exits 2 naming the file and its line."""

    @pytest.mark.parametrize("command, line, ending", [
        ("check", 3, "LF"), ("segment", 2, "LF"), ("synthesize", 5, "LF"),
        ("synthesize", 5, "CRLF"), ("score", 9, "CR"), ("fit", 1, "LF"),
    ])
    def test_file_and_line_named(self, command, line, ending, params_file,
                                 tmp_path, capsys):
        beats, record = tmp_path / "beats.csv", tmp_path / "rec.csv"
        params, out = tmp_path / "bad.params", tmp_path / "out"
        assert synth(beats, params_file, beats=2) == 0
        write_record_csv(record, make_jittered_record(seed=5)[0])
        shutil.copyfile(params_file, params)
        capsys.readouterr()
        argv, bad = {
            "check": (["check", "--input", str(beats)], beats),
            "segment": (["segment", "--input", str(record), "--out-dir", str(out)],
                        record),
            "synthesize": (["synthesize", "--params", str(params), "--class",
                            "NORMAL", "--out", str(out)], params),
            "score": (["score", "--input", str(beats), "--params", str(params)],
                      params),
            "fit": (["fit", "--input", str(beats), "--init", str(params),
                     "--out", str(out)], params),
        }[command]
        at = _latin1_line(bad, line, {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}[ending])
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", (
            f"ecgdyn: {bad}:{line}: 'utf-8' codec can't decode byte 0xe9 "
            f"in position {at}: invalid continuation byte\n"))
        assert not out.exists()


class TestHeaderOnly:
    """A beat file with a header and no rows, or with no bytes at all, is an
    error for every command, and the writer refuses to make one."""

    @pytest.mark.parametrize("text, message", [
        (oracle.CSV_HEADER + "\n", "no beats"), (oracle.CSV_MULTI_HEADER + "\n", "no beats"),
        ("", "empty file")], ids=["single", "multi", "zero bytes"])
    @pytest.mark.parametrize("command", ["score", "check", "refine", "fit"])
    def test_command_exits_two(self, command, text, message, params_file, tmp_path,
                               capsys):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        flags = {"score": ["--params", params_file],
                 "check": [],
                 "refine": ["--params", params_file, "--out", str(tmp_path / "out.csv")],
                 "fit": ["--init", params_file, "--out", str(tmp_path / "out.params")]}
        assert run_cli([command, "--input", str(path), *flags[command]]) == 2
        assert capsys.readouterr() == ("", f"ecgdyn: {path}: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["empty.csv"]

    def test_writer_refuses_no_beats(self, tmp_path):
        with pytest.raises(ValueError, match="no beats to write"):
            write_beats_csv(tmp_path / "empty.csv", [])
        assert not (tmp_path / "empty.csv").exists()


def _beats(values, n_beats=1, fs=500.0, L=None):
    """Beats holding ``values`` in order, cycled to fill 12 x L per beat."""
    L = L or max(2, -(-len(values) // 12))
    flat = np.resize(np.asarray(values, dtype=float), n_beats * 12 * L)
    return [Heartbeat(grid=SamplingGrid(fs, L), leads=chunk.reshape(12, L))
            for chunk in np.split(flat, n_beats)]


#: orjson writes repr's digits for 1e-4 <= |v| < 1e16 only: the bounds and
#: their neighbours on both sides are among these, with either sign.
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-7, 1e16, 1e22, -1e22,
                0.1 + 0.2, 1.0, 123456789.0, 2.0 ** -1074 * 3,
                *(sign * float(v) for edge in (1e-4, 1e16) for sign in (1.0, -1.0)
                  for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)))]


def _random_17_digit(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


class TestCsvWriter:
    """The writers against the row-by-row writers they replaced."""

    #: Five beats of 500 and 491.37 Hz, _WRITE_BLOCK samples in all.
    BLOCK_LENGTHS = ((500.0, 1000), (491.37, 1300), (500.0, 1000), (491.37, 794),
                     (500.0, 2))

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

    @pytest.mark.parametrize("extra", [0, 1], ids=["one block", "one block and a sample"])
    def test_block_boundary_bytes_match(self, extra, tmp_path):
        values = _EDGE_VALUES + list(_random_17_digit(300))
        lengths = [*self.BLOCK_LENGTHS[:-1], (500.0, self.BLOCK_LENGTHS[-1][1] + extra)]
        beats = [beat for fs, L in lengths for beat in _beats(values, 1, fs, L)]
        assert sum(beat.grid.L for beat in beats) == cli._WRITE_BLOCK + extra
        write_beats_csv(tmp_path / "new.csv", beats)
        oracle.write_beats_csv(tmp_path / "old.csv", beats)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @staticmethod
    def _writers_match(writer, rows, tmp_path, monkeypatch):
        """Both writers' bytes against the oracle's for an (n, 12) array of
        samples, as 10 beats or as one record; the orjson pass reads the
        file back bit for bit, without the line parser."""
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        if writer == "beats":
            beats = [Heartbeat(grid=SamplingGrid(491.37, len(chunk)), leads=chunk.T)
                     for chunk in np.array_split(rows, 10)]
            write_beats_csv(new, beats)
            oracle.write_beats_csv(old, beats)
        else:
            record = Record(fs=250.0, channels=rows.T, id="r")
            write_record_csv(new, record)
            oracle.write_record_csv(old, record)
        assert new.read_bytes() == old.read_bytes()
        monkeypatch.setattr(cli, "_parse_rows", _refuse)
        if writer == "beats":
            back = np.hstack([beat.leads for beat in read_beats_csv(new)])
        else:
            back = read_record_csv(new).channels
        assert _bits(back.T) == _bits(rows)

    @pytest.mark.parametrize("writer", ["beats", "record"])
    def test_edge_values_in_plain_rows_bytes_match(self, writer, tmp_path, monkeypatch):
        # orjson writes a row only when every value in it is plain, so each
        # edge value sits in each column of a row of otherwise plain values
        n = len(_EDGE_VALUES) * 12
        rows = np.full((n, 12), 0.5)
        rows[np.arange(n), np.arange(n) % 12] = np.repeat(_EDGE_VALUES, 12)
        self._writers_match(writer, rows, tmp_path, monkeypatch)

    @pytest.mark.parametrize("writer", ["beats", "record"])
    def test_several_odd_cells_in_a_row_bytes_match(self, writer, tmp_path, monkeypatch):
        # repr rewrites only the cells orjson writes otherwise, four to a
        # row and in columns that move from row to row; every other row
        # holds none, and the plain cells between them keep orjson's text
        rows = np.random.default_rng(9).uniform(-2.0, 2.0, (600, 12))
        for r in range(0, 600, 2):
            cols = [(r // 2 + shift) % 12 for shift in (0, 3, 5, 8)]
            rows[r, cols] = [1e-5, 5e-324, 1e16, -1e-7]
        self._writers_match(writer, rows, tmp_path, monkeypatch)

    @pytest.mark.parametrize("writer", ["beats", "record"])
    def test_random_bit_patterns_bytes_match(self, writer, tmp_path, monkeypatch):
        # rows of any exponent, then rows of exponents 2^-14..2^53, most of
        # which orjson writes: the 1e-4 and 1e16 bounds fall inside them
        rng = np.random.default_rng(8)
        sign = rng.integers(0, 2, 60_000, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(1023 - 14, 1023 + 54, 60_000).astype(np.uint64)
        fraction = rng.integers(0, 2 ** 52, 60_000, dtype=np.uint64)
        bits = np.concatenate([rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64),
                               sign | exponent << np.uint64(52) | fraction])
        values = bits.view(float)
        values = values[np.isfinite(values)][:102_000]
        assert values.size == 102_000
        self._writers_match(writer, values.reshape(-1, 12), tmp_path, monkeypatch)

    def test_ten_beat_synthesize_never_forks(self, params_file, tmp_path, capsys,
                                             monkeypatch):
        forks = TestSegment._spy_fork(monkeypatch)
        assert synth(tmp_path / "beats.csv", params_file, beats=10) == 0
        assert forks == []

    def test_startup_never_loads_orjson(self, params_file, tmp_path, capsys):
        # its load costs milliseconds that starting the CLI never needs;
        # the first read or write pays for it
        beats = tmp_path / "beats.csv"
        synth(beats, params_file, beats=2)
        script = "\n".join([
            "import sys",
            "from ecgdyn.cli import run_cli",
            "assert 'orjson' not in sys.modules, 'loaded by the import'",
            "assert run_cli(['--help']) == 0",
            "assert run_cli(['--version']) == 0",
            "assert run_cli(['check', '--help']) == 0",
            "assert 'orjson' not in sys.modules, 'loaded by --help or --version'",
            f"assert run_cli(['check', '--input', {str(beats)!r}]) == 0",
            "assert 'orjson' in sys.modules, 'not loaded by check'",
        ])
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
