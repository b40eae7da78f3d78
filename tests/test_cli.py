import argparse
import contextlib
import copy
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import pickle
import shlex
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from chordspace.cli import build_parser, main, parse_cents
from chordspace.config import Config
from chordspace.field import export_csv, export_matrix
from chordspace.harmonicity import periodicity_field
from chordspace.pitch import Chord
from chordspace.psychometric import THIRD_QUARTILE_Z, gaussian_smooth
from chordspace.resolve import TransitiveConfig, transitive_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("chordspace.cli.cmd_distance", fail)
    assert run_cli(capsys, "distance", "[0,4,7]", "[0,3,7]") == (4, "", "internal error: boom\n")


def test_parse_cents_suffix_and_semitones():
    assert parse_cents("6c") == 6.0
    assert parse_cents("0.06") == pytest.approx(6.0)
    assert parse_cents("18C") == 18.0
    with pytest.raises(Exception):
        parse_cents("six")


def test_distance_golden_values(capsys):
    code, out, _ = run_cli(capsys, "distance", "[0,1,7]", "[0,6,7]")
    assert code == 0
    data = json.loads(out)
    assert data["d_n"]["3"] == 5.0
    assert data["d_n"]["4"] == 2.0
    assert data["delta"] == 2.0
    assert data["d"] == 2.0
    assert data["witness"]["total"] == 2.0


def test_distance_zero_and_split_cases(capsys):
    code, out, _ = run_cli(capsys, "distance", "[0]", "[0]")
    data = json.loads(out)
    assert code == 0 and data["d"] == 0.0 and data["delta"] == 0.0

    code, out, _ = run_cli(capsys, "distance", "[0]", "[0,1,2]")
    data = json.loads(out)
    assert data["delta"] == 2.0 and data["d"] == 3.0


def test_distance_parse_failure_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "[0,1,7]", "[zz]"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("[1e308]", "[-1e308]"),
        ("[0,1e200]", "[0]", "--norm", "euclidean"),
        ("[0,1e155]", "[0,1]", "--norm", "euclidean"),
    ],
)
def test_distance_overflow_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "distance", *argv)
    assert code == 2
    assert out == ""
    assert "too far apart" in err


def test_distance_seven_vs_eight_notes_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "distance", "[0,2,4,5,7,9,11]", "[0,1,3,5,6,8,10,11]")
    assert code == 0
    assert time.perf_counter() - start < 2.0
    assert sorted(json.loads(out)["d_n"], key=int) == [str(n) for n in range(8, 16)]


def test_periodicity_values_and_witness(capsys):
    code, out, _ = run_cli(capsys, "periodicity", "[0,7]")
    assert code == 0
    assert json.loads(out)["periodicity"] == 2

    code, out, _ = run_cli(capsys, "periodicity", "[0]")
    assert json.loads(out)["periodicity"] == 1

    code, out, _ = run_cli(capsys, "periodicity", "[0,4,7]")
    data = json.loads(out)
    assert data["periodicity"] == 4
    assert data["ratios"] == ["1", "5/4", "3/2"]
    assert data["log2_periodicity"] == 2.0


def test_periodicity_shift_flag_and_infeasible_exit(capsys):
    code, out, _ = run_cli(capsys, "periodicity", "[3,10]", "--shift-to-root")
    assert code == 0 and json.loads(out)["periodicity"] == 2

    code, _, err = run_cli(capsys, "periodicity", "[0,5.5]", "--qmax", "7")
    assert code == 3
    assert "infeasible" in err

    code, _, err = run_cli(capsys, "periodicity", "[3,10]")
    assert code == 2  # not rooted at zero and no shift requested


def test_octave_shifted_to_the_root_resolves(capsys):
    code, out, _ = run_cli(capsys, "periodicity", "[11.78,23.78]", "--shift-to-root")
    assert code == 0
    assert json.loads(out)["periodicity"] == 1

    code, out, _ = run_cli(capsys, "resolve", "[4.5,8.48,15.24]", "[11.78,23.78]")
    assert code == 0
    data = json.loads(out)
    assert data["periodicity_second"] == 1
    assert data["transitive"] == 23
    assert data["relative_to_first"] == 1

    code, _, err = run_cli(capsys, "periodicity", "[0,13]")
    assert code == 2 and "one octave" in err


def test_periodicity_rerooting_flag(capsys):
    code, out, _ = run_cli(capsys, "periodicity", "[0,3,9]", "--all-rerootings")
    data = json.loads(out)
    assert code == 0
    assert data["rerooted_minimum"] == 16
    assert data["rerooted_per_root"]["0"] == 16


def test_field_periodicity_writes_deterministic_csv(tmp_path, capsys):
    out = tmp_path / "dyad.csv"
    args = ["field", "periodicity", "2", "--res", "50", "--sigma", "0c", "--out", str(out)]
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    first = out.read_bytes()
    sidecar = json.loads((tmp_path / "dyad.csv.json").read_text())
    assert sidecar["sha256"] == json.loads(stdout)["sha256"]
    assert sidecar["config"]["jnd_cents"] == 18.0

    out2 = tmp_path / "dyad2.csv"
    code, _, _ = run_cli(capsys, "field", "periodicity", "2", "--res", "50",
                         "--sigma", "0c", "--out", str(out2))
    assert code == 0
    assert out2.read_bytes() == first

    header = first.decode().splitlines()[0]
    assert header == "x2,log2_periodicity"


def test_field_periodicity_matrix_is_the_smoothed_field(tmp_path, capsys):
    out, matrix = tmp_path / "triad.csv", tmp_path / "triad.txt"
    code, stdout, _ = run_cli(capsys, "field", "periodicity", "3", "--res", "100",
                              "--out", str(out), "--matrix", str(matrix))
    assert code == 0
    sidecar = json.loads(stdout)
    assert sidecar["matrix_file"] == str(matrix)
    assert json.loads((tmp_path / "triad.csv.json").read_text()) == sidecar
    want = tmp_path / "want.txt"
    export_matrix(gaussian_smooth(periodicity_field(3, 100), sidecar["sigma"]["cents"]), want)
    assert matrix.read_bytes() == want.read_bytes()


def test_field_resolution_must_divide_octave(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "field", "periodicity", "2", "--res", "7",
                                "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err == "error: resolution 7 must be positive and divide 1200\n"
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("res", ["0", "-50"])
@pytest.mark.parametrize(
    "argv",
    [
        ("field", "periodicity", "3"),
        ("field", "roughness", "2"),
        ("resolve-field", "[3,9]"),
    ],
)
def test_field_nonpositive_resolution_exits_2(tmp_path, capsys, argv, res):
    out = tmp_path / "a.csv"
    code, stdout, err = run_cli(capsys, *argv, "--res", res, "--out", str(out))
    assert code == 2
    if argv[0] == "field":  # interval_grid's rule
        assert err == f"error: resolution {res} must be positive and divide 1200\n"
    else:  # a window takes any positive step
        assert err == "error: resolution must be a positive number of cents\n"
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["nanc", "infc", "-infc", "nan", "inf", "1e308"])
def test_parse_cents_rejects_non_finite(text):
    with pytest.raises(argparse.ArgumentTypeError, match="finite"):
        parse_cents(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("field", "periodicity", "2", "--res", "600", "--sigma", "nanc"),
        ("field", "periodicity", "2", "--res", "600", "--sigma", "infc"),
        ("resolve-field", "[3,9]", "--scope", "nanc"),
        ("resolve-field", "[3,9]", "--scope", "infc"),
    ],
)
def test_non_finite_width_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "a.csv")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("res, sigma", [("100", "1e12c"), ("600", "1200c")])
def test_smoothing_wider_than_the_grid_exits_2(tmp_path, capsys, res, sigma):
    code = main(["field", "roughness", "2", "--res", res, "--sigma", sigma,
                 "--out", str(tmp_path / "f.csv")])
    assert code == 2
    assert "longest axis" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_non_finite_config_scope_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"scope_cents": math.nan}))  # JSON NaN, as Python writes it
    code, out, err = run_cli(capsys, "--config", str(cfg), "resolve", "[0,4,7]", "[0,4,7]")
    assert code == 2 and out == ""
    assert "scope" in err


def test_field_roughness(tmp_path, capsys):
    out = tmp_path / "rough.csv"
    code, stdout, _ = run_cli(capsys, "field", "roughness", "2", "--res", "100",
                              "--sigma", "0c", "--out", str(out))
    assert code == 0
    assert out.exists()
    assert json.loads(stdout)["value_name"] == "roughness"


@pytest.mark.parametrize(
    "config",
    [
        {"spectrum": [[1.0, math.nan], [2.0, 0.5]]},
        {"spectrum": [[1.0, 1.0], [math.inf, 0.5]]},
        {"roughness": {"scale": math.nan}},
        {"f0_hz": 1e308},  # partial frequencies overflow
        {"spectrum": [[1.0, 1.0], [1e308, 0.5]]},
    ],
)
def test_field_roughness_rejects_non_finite_config(tmp_path, capsys, config):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))  # NaN and Infinity as Python writes them
    out = tmp_path / "rough.csv"
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "field", "roughness", "2",
                                "--res", "100", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error:")


def test_field_transitive_emits_pair(tmp_path, capsys):
    out = tmp_path / "win.csv"
    code, stdout, _ = run_cli(
        capsys, "resolve-field", "[3,9]", "--scope", "100c",
        "--res", "50", "--sigma", "0c", "--out", str(out),
    )
    assert code == 0
    panels = json.loads(stdout)["panels"]
    assert [p["value_name"] for p in panels] == [
        "log2_transitive_periodicity", "log2_periodicity",
    ]
    assert (tmp_path / "win.csv").exists()
    assert (tmp_path / "win_p2.csv").exists()


@pytest.mark.parametrize(
    "field_args,message",
    [
        (("periodicity", "2", "--res", "10"), "matrix export is defined for 2-d fields only"),
        (("roughness", "4", "--res", "100"), "matrix export is defined for 2-d fields only"),
    ],
    ids=["periodicity-dyad", "roughness-tetrad"],
)
def test_field_transitive_rejects_matrix_before_computing(tmp_path, capsys, field_args, message):
    code, stdout, err = run_cli(
        capsys, "field", *field_args,
        "--out", str(tmp_path / "w.csv"), "--matrix", str(tmp_path / "m.txt"),
    )
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["w.csv", "w.csv.json"])
def test_matrix_may_not_overwrite_the_field_or_its_sidecar(tmp_path, capsys, monkeypatch, target):
    monkeypatch.chdir(tmp_path)  # the same file, spelled relative to the absolute --out
    code, stdout, err = run_cli(
        capsys, "field", "periodicity", "3", "--res", "600", "--sigma", "0c",
        "--out", str(tmp_path / "w.csv"), "--matrix", target,
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error: --matrix ") and "overwrite" in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_matrix_path_leaves_no_file(tmp_path, capsys, monkeypatch):
    # no output replaces its path until every one is written: no CSV without a sidecar
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(
        capsys, "field", "periodicity", "3", "--res", "600", "--sigma", "0c",
        "--out", "w.csv", "--matrix", "nodir/m.txt",
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "nodir/m.txt" in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_csv_path_leaves_the_directory_as_it_was(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_bytes(b"kept\n")
    argv = ("field", "periodicity", "3", "--res", "600", "--sigma", "0c", "--matrix", "m.txt")
    code, stdout, err = run_cli(capsys, *argv, "--out", "nodir/w.csv")
    assert (code, stdout) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'nodir/w.csv'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
    assert (tmp_path / "m.txt").read_bytes() == b"kept\n"
    # a run that succeeds replaces m.txt and leaves no temporary file
    assert run_cli(capsys, *argv, "--out", "w.csv")[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt", "w.csv", "w.csv.json"]
    assert (tmp_path / "m.txt").read_bytes() != b"kept\n"


@pytest.mark.parametrize("target", ["w.csv", "w.csv.json", "m.txt"])
def test_a_directory_in_place_of_an_output_leaves_the_directory_as_it_was(
    tmp_path, capsys, monkeypatch, target
):
    # refused before any output replaces its path: the CSV may not stay without its sidecar
    monkeypatch.chdir(tmp_path)
    (tmp_path / target).mkdir()
    code, stdout, err = run_cli(capsys, "field", "periodicity", "3", "--res", "600", "--sigma", "0c",
                                "--out", "w.csv", "--matrix", "m.txt")
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno {errno.EISDIR}] Is a directory: '{target}'\n"
    assert [p.name for p in tmp_path.iterdir()] == [target]
    assert list((tmp_path / target).iterdir()) == []


def test_a_resolution_past_the_float_range_exits_2(tmp_path, capsys):
    huge = "1" + "0" * 400
    code, stdout, err = run_cli(capsys, "resolve-field", "[3,9]", "--res", huge,
                                "--out", str(tmp_path / "w.csv"))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and f" {huge} cents" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("field", "transitive", "2", "--from", "[3,9]", "--out", "{out}"),
        ("field", "periodicity", "3", "--scope", "100c", "--out", "{out}"),
        ("resolve", "[3,9]", "[4,8]", "--scope", "100c"),
        ("resolve-field", "[3,9]", "2", "--out", "{out}"),
        ("resolve-field", "[3,9]", "--matrix", "{matrix}", "--out", "{out}"),
    ],
    ids=["field-transitive", "field-scope", "resolve-scope", "resolve-field-size",
         "resolve-field-matrix"],
)
def test_removed_window_spellings_exit_2(tmp_path, argv):
    argv = [part.format(out=tmp_path / "w.csv", matrix=tmp_path / "m.txt") for part in argv]
    assert _exit_code(argv) == 2
    assert list(tmp_path.iterdir()) == []


def test_window_resolution_need_not_divide_the_octave(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CHORDSPACE_CONFIG", raising=False)
    out = tmp_path / "w.csv"
    code, _, _ = run_cli(capsys, "resolve-field", "[3,9]", "--scope", "30c", "--res", "7",
                         "--sigma", "0c", "--out", str(out))
    assert code == 0
    panels = transitive_field(Chord((3.0, 9.0)), TransitiveConfig(scope_cents=30.0), 7)
    for fld, path in zip(panels, (out, tmp_path / "w_p2.csv"), strict=True):
        export_csv(fld, tmp_path / "want.csv")
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_readme_window_command_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CHORDSPACE_CONFIG", raising=False)
    code, stdout, _ = run_cli(
        capsys, "resolve-field", "[3,9]", "--scope", "200c", "--res", "10",
        "--out", str(tmp_path / "window.csv"),
    )
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("window.csv", "window_p2.csv", "window.csv.json")
    }
    assert digests == {
        "window.csv": "b93c58a0b5e5710137417521bd10095c60d8319d422a418c75c5773f1270bedf",
        "window_p2.csv": "4eeb2e8b63bd499c4bdf1458b7a6e22d0ae7aee74da139a0727447e3ce82b2a2",
        "window.csv.json": "797354b1c51b1151e12a1e3df5c3c708bd58022fd2d90d3fe8ba4c6e27376483",
    }
    assert json.loads(stdout) == json.loads((tmp_path / "window.csv.json").read_text())


def test_resolve_reports_all_quantities(capsys):
    code, out, _ = run_cli(capsys, "resolve", "[3,9]", "[4,8]")
    assert code == 0
    data = json.loads(out)
    assert data["transitive"] == 9
    assert data["periodicity_second"] == 4
    assert data["relative_to_first"] == 2
    assert math.isfinite(data["chan"])
    assert data["jnd"] == {"cents": 18.0, "semitones": 0.18}

    code, out, _ = run_cli(capsys, "resolve", "[0,7]", "[0,7]")
    data = json.loads(out)
    assert data["transitive"] == 1 and data["chan"] == 0.0


def test_resolve_fifth_target_ordering(capsys):
    _, out1, _ = run_cli(capsys, "resolve", "[3,9]", "[3.5,8.5]")
    _, out2, _ = run_cli(capsys, "resolve", "[3,9]", "[4,8]")
    assert json.loads(out1)["transitive"] >= json.loads(out2)["transitive"]


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"jnd_cents": 1200 * math.log2(1.011), "qmax": 50}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "periodicity", "[0,6]")
    assert code == 0
    data = json.loads(out)
    assert data["periodicity"] == 5
    assert data["config"]["qmax"] == 50


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"jnddd": 18}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "periodicity", "[0,7]")
    assert code == 2
    assert "unknown config" in err


@pytest.mark.parametrize(
    "config",
    [
        {"roughness": {"bogus": 1}},
        {"roughness": {"scale": None}},
        {"roughness": {"scale": "5"}},
        {"roughness": [1]},
        {"resolutions": {"2": None}},
        {"resolutions": {"2": 2.5}},
        {"resolutions": [1]},
        {"spectrum": [[1.0, None]]},
        {"spectrum": [[1.0, 1.0, 1.0]]},
        {"spectrum": [1.0]},
        {"spectrum": 5},
        {"qmax": 2.5},
        {"qmax": "50"},
        {"qmax": True},
        {"qmax": None},
        {"jnd_cents": "18"},
        {"jnd_cents": 10**400},  # a JSON integer beyond any float
        {"f0_hz": None},
        {"scope_cents": [200]},
        {"sigma_mode": 3},
    ],
)
def test_config_rejects_wrong_json_types(tmp_path, capsys, config):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "f.csv"
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "field", "roughness", "2",
                                "--res", "100", "--out", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert err.startswith("error:")


def test_config_file_that_is_not_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text("{qmax: 50}")
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "periodicity", "[0,7]")
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {cfg}: not valid JSON")


def test_config_sigma_mode_iqr_smooths_at_the_quartile_width(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"sigma_mode": "iqr", "jnd_cents": 12.0}))
    code, stdout, _ = run_cli(capsys, "--config", str(cfg), "field", "periodicity", "2",
                              "--res", "10", "--out", str(tmp_path / "dyad.csv"))
    assert code == 0
    sidecar = json.loads(stdout)
    assert sidecar["config"]["sigma_mode"] == "iqr"
    assert sidecar["sigma"]["cents"] == sidecar["config"]["sigma_cents"] == 12.0 / THIRD_QUARTILE_Z


def test_config_accepts_whole_numbers_as_integers(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"qmax": 64.0, "resolutions": {"2": 100.0}, "jnd_cents": 18}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "periodicity", "[0,7]")
    assert code == 0
    snapshot = json.loads(out)["config"]
    assert snapshot["qmax"] == 64 and isinstance(snapshot["qmax"], int)
    assert snapshot["resolutions"]["2"] == 100 and snapshot["jnd_cents"] == 18.0


def test_config_names_a_resolutions_key_that_is_no_integer(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"resolutions": {"x": 1}}))
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "periodicity", "[0,7]")
    assert (code, stdout) == (2, "")
    assert err == "error: config resolutions keys must be integers, got 'x'\n"


ROUGHNESS_DYADS = ("field", "roughness", "2", "--res", "100", "--sigma", "0")


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({}, (*ROUGHNESS_DYADS, "--jnd=-5c", "--qmax", "1"), "jnd_cents must be positive, got -5.0"),
        ({}, (*ROUGHNESS_DYADS, "--qmax", "1"), "qmax must be >= 2, got 1"),
        ({"scope_cents": math.nan}, ("periodicity", "[0,4,7]"),
         "scope must be nonnegative and finite, got nan"),
        ({"scope_cents": -5}, ("distance", "[0,4,7]", "[0,3,7]"),
         "scope must be nonnegative and finite, got -5.0"),
        ({"scope_cents": -5}, ("field", "periodicity", "2", "--res", "100"),
         "scope must be nonnegative and finite, got -5.0"),
    ],
)
def test_invalid_settings_exit_2_on_every_command(tmp_path, capsys, config, argv, message):
    """A flag passes the same checks as a config value, and every command checks them all."""
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    outputs = ("--out", str(tmp_path / "f.csv")) if argv[0] == "field" else ()
    code, stdout, err = run_cli(capsys, "--config", str(cfg), *argv, *outputs)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]


def test_scope_flag_is_the_scope_the_snapshot_records(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "resolve-field", "[3,9]",
                              "--scope", "100c", "--res", "10", "--out", str(tmp_path / "w.csv"))
    assert code == 0
    for panel in json.loads(stdout)["panels"]:
        assert panel["config"]["scope_cents"] == panel["meta"]["scope_cents"] == 100.0


def test_config_is_frozen():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.jnd_cents = 5.0


def test_config_resolutions_are_immutable_integers():
    cfg = Config()
    with pytest.raises(TypeError):
        cfg.resolutions[3] = 7
    assert cfg.resolution_for(3) == 10
    with pytest.raises(ValueError, match="resolutions must be integers"):
        Config(resolutions={3: 2.5})


def test_config_keeps_the_qmax_it_checks():
    cfg = Config(qmax=np.int64(50))
    assert type(cfg.qmax) is int
    assert json.loads(json.dumps(cfg.snapshot()))["qmax"] == 50


@pytest.mark.parametrize("name, value", [
    ("f0_hz", 261.5), ("jnd_cents", 18.0), ("scope_cents", 100.0),
])
def test_config_keeps_the_floats_it_checks(name, value):
    cfg = Config(**{name: np.float32(value)})
    assert type(getattr(cfg, name)) is float
    assert json.loads(json.dumps(cfg.snapshot()))[name] == value


def test_config_survives_pickle_and_deepcopy():
    cfg = Config(jnd_cents=12.0, qmax=64, resolutions={3: 20, 2: 5}, scope_cents=100.0)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert copy.deepcopy(cfg) == cfg


def test_config_snapshot_holds_every_field_and_sigma():
    names = {f.name for f in dataclasses.fields(Config)}
    assert set(Config().snapshot()) == names | {"sigma_cents"}


def test_each_subcommand_keeps_its_options():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for action in p._actions for s in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert {s for action in parser._actions for s in action.option_strings} == {
        "-h", "--help", "--config"
    }
    assert options == {
        "distance": {"-h", "--help", "--norm"},
        "periodicity": {"-h", "--help", "--jnd", "--qmax", "--shift-to-root", "--per-note-only",
                        "--all-rerootings"},
        "field": {"-h", "--help", "--res", "--sigma", "--jnd", "--qmax", "--out", "--matrix"},
        "resolve": {"-h", "--help", "--jnd", "--qmax"},
        "resolve-field": {"-h", "--help", "--res", "--sigma", "--jnd", "--qmax", "--scope",
                          "--out"},
    }


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"qmax": 64}))
    monkeypatch.setenv("CHORDSPACE_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "periodicity", "[0,7]")
    assert code == 0
    assert json.loads(out)["config"]["qmax"] == 64


def _exit_code(argv) -> int:
    """Exit code of one CLI run, its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            return exc.code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from([
        ("field", "periodicity", "{size}"),
        ("field", "roughness", "{size}"),
        ("resolve-field", "[3,9]"),
    ]),
    size=st.integers(0, 5),
    res=st.sampled_from(["0", "-50", "7", "600"]),
    sigma=st.sampled_from([None, "0c", "6c", "-1", "nanc", "infc", "1e12c", "1e300c"]),
    scope=st.sampled_from([None, "100c", "-1", "nanc", "infc"]),
)
# a kernel of 1e10 cells, which the random draws pair only with rejected flags
@example(command=("field", "roughness", "{size}"), size=2, res="600", sigma="1e12c", scope=None)
# grids beyond the box-cell bound, refused before any per-cell array is built
@example(command=("field", "periodicity", "{size}"), size=4, res="1", sigma=None, scope=None)
@example(command=("field", "roughness", "{size}"), size=4, res="1", sigma=None, scope=None)
@example(command=("resolve-field", "[0]"), size=1, res="1", sigma=None, scope="100000000000c")
def test_field_commands_never_exit_internal(command, size, res, sigma, scope):
    """User input never makes the field commands exit 4 (internal error)."""
    argv = [part.format(size=size) for part in command] + ["--res", res]
    if command[0] != "resolve-field":  # only a window field has a scope
        scope = None
    for flag, value in (("--sigma", sigma), ("--scope", scope)):
        if value is not None:
            argv += [flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        assert _exit_code(argv + ["--out", str(Path(tmp) / "f.csv")]) in (0, 2, 3)


def _roughness_configs():
    """Each of NaN, +-Infinity and 1e308 in f0_hz, a spectrum entry or a curve constant."""
    partials = [[float(k), 0.88 ** (k - 1)] for k in range(1, 7)]
    constants = ("slow_decay", "fast_decay", "peak_fraction", "bandwidth_slope",
                 "bandwidth_offset_hz", "scale")
    for value in (math.nan, math.inf, -math.inf, 1e308):
        yield {"f0_hz": value}
        for row, col in itertools.product((0, -1), (0, 1)):
            spectrum = [list(p) for p in partials]
            spectrum[row][col] = value
            yield {"spectrum": spectrum}
        for name in constants:
            yield {"roughness": {name: value}}


@pytest.mark.parametrize("size", ["2", "3"])
def test_field_roughness_config_never_exits_internal(size):
    """Non-finite and overflowing roughness configs exit 0 or 2, never 4."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "conf.json"
        for config in _roughness_configs():
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg), "field", "roughness", size, "--res", "100",
                    "--out", str(Path(tmp) / "f.csv")]
            assert _exit_code(argv) in (0, 2), config


@pytest.mark.parametrize(
    "argv, message",
    [
        (("periodicity", "[0,4,7]", "--jnd", "1e300c"), "overflows a float"),
        (("resolve", "[0,20000]", "[0]"), "overflows a float"),
        (("resolve", "[0]", "[0]", "--jnd", "1e300c"), "overflows a float"),
        (("field", "periodicity", "2", "--res", "600", "--jnd", "1e300c", "--out", "{out}"),
         "overflows a float"),
        (("resolve-field", "[0,20000]", "--scope", "100c", "--res", "100", "--out", "{out}"),
         "overflows a float"),
        (("resolve-field", "[0,20000]", "--scope", "50c", "--res", "50", "--out", "{out}"),
         "overflows a float"),
        (("--config", "{config}", "field", "periodicity", "2", "--out", "{out}"),
         "overflows a float"),
        (("resolve", "[0,1e307]", "[0]"), "overflows a float"),  # infinite cents
        # windows too wide to scan for fractions, refused rather than exhausted
        (("resolve", "[0,1e4]", "[0]"), "wider than 64"),
        (("periodicity", "[0,4,7]", "--jnd", "20000c", "--all-rerootings"), "wider than 64"),
        (("resolve", "[1e300]", "[1e300]"), "no positive float frequency"),
        (("resolve", "[-1e300]", "[-1e300]"), "no positive float frequency"),
        # about 10**14 ratios with denominators up to 10**8, refused before any is built
        (("periodicity", "[0,4,7]", "--qmax", "100000000"), "too many ratios"),
        # target windows reaching beyond the octave
        (("resolve-field", "[0,12]", "--scope", "100c", "--res", "50", "--out", "{out}"),
         "one octave"),
        (("resolve-field", "[0,13]", "--scope", "100c", "--res", "50", "--out", "{out}"),
         "one octave"),
    ],
)
def test_pitch_out_of_float_range_exits_2(tmp_path, capsys, argv, message):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"jnd_cents": 1e300}))
    argv = [part.format(out=tmp_path / "f.csv", config=config) for part in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


NOTES = st.sampled_from([0, 0.5, 4, 7, 11.99, 12, 13, -5, 1e4, 1e300, -1e300])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from([
        ("distance",),
        ("periodicity",),
        ("periodicity", "--all-rerootings"),
        ("periodicity", "--per-note-only"),
        ("periodicity", "--all-rerootings", "--per-note-only"),
        ("resolve",),
    ]),
    chords=st.lists(st.lists(NOTES, min_size=1, max_size=4), min_size=2, max_size=2),
    jnd=st.sampled_from([None, "6c", "18c", "0c", "-1c", "2000c", "1e300c", "nanc"]),
    qmax=st.sampled_from([None, "1", "2", "12", "100", "100000000"]),
)
def test_chord_commands_never_exit_internal(command, chords, jnd, qmax):
    """User input never makes distance, periodicity or resolve exit 4."""
    name, *flags = command
    texts = ["[" + ",".join(map(repr, notes)) + "]" for notes in chords]
    argv = [name] + texts[: 1 if name == "periodicity" else 2] + flags
    if name != "distance":
        argv += [f"--jnd={jnd}"] * (jnd is not None) + [f"--qmax={qmax}"] * (qmax is not None)
    assert _exit_code(argv) in (0, 2, 3)


HUGE = "1" + "0" * 400  # past the float range
# the tuning search takes one frame per note list: deeper than the recursion limit,
# which Hypothesis raises by 2,000 frames while a test runs
DEEP_CHORD = "[" + ",".join(f"{k / 500:.3f}" for k in range(5000)) + "]"
WHOLE = st.sampled_from(["0", "-50", "7", "100", "600", HUGE, "-" + HUGE])
WIDTHS = st.sampled_from(
    ["0c", "6c", "18c", "-1", "nanc", "infc", "-infc", "1e300c", HUGE + "c", "-" + HUGE]
)
CHORDS = st.sampled_from(["[0,4,7]", "[3,9]", "[0]", "[0,13]", f"[0,{HUGE}]", "[1e300]", "[-5,nan]"])
# a window field runs a search per cell: at most two notes, as in the README
WINDOW_CHORDS = st.sampled_from(["[3,9]", "[0]", "[0,13]", f"[0,{HUGE}]", "[1e300]"])
# in the run's directory "sub", "s.csv.json" and "p_p2.csv" are directories, "m.txt"
# is a file and "nodir" is missing
OUTPUTS = st.sampled_from(["w.csv", "nodir/w.csv", "sub", "s.csv", "p.csv", "m.txt"])
MATRICES = st.sampled_from(["m.txt", "nodir/m.txt", "sub", "s.csv.json"])


@st.composite
def _runs(draw):
    """The argv of one run of any subcommand, its outputs relative to the run's directory."""
    def options(*flags):
        drawn = [(flag, draw(st.none() | values)) for flag, values in flags]
        return [part for flag, value in drawn if value is not None for part in (flag, value)]

    command = draw(st.sampled_from(["distance", "periodicity", "field", "resolve", "resolve-field"]))
    tuning = options(("--jnd", WIDTHS), ("--qmax", WHOLE))
    grid = options(("--res", WHOLE), ("--sigma", WIDTHS)) + ["--out", draw(OUTPUTS)]
    if command == "distance":
        return [command, draw(CHORDS), draw(CHORDS), "--norm",
                draw(st.sampled_from(["manhattan", "euclidean"]))]
    if command == "periodicity":
        flags = st.sampled_from(["--shift-to-root", "--per-note-only", "--all-rerootings"])
        return [command, draw(CHORDS), *draw(st.lists(flags, unique=True))] + tuning
    if command == "resolve":
        return [command, draw(CHORDS), draw(CHORDS)] + tuning
    if command == "field":
        kind = draw(st.sampled_from(["periodicity", "roughness"]))
        size = draw(WHOLE | st.sampled_from(["2", "3", "4"]))
        return [command, kind, size] + grid + options(("--matrix", MATRICES)) + tuning
    return [command, draw(WINDOW_CHORDS)] + grid + options(("--scope", WIDTHS)) + tuning


def _listing(root: Path) -> dict:
    """Every path under ``root`` with its bytes, None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=_runs())
@example(argv=["resolve-field", "[3,9]", "--res", HUGE, "--out", "w.csv"])
@example(argv=["field", "periodicity", "3", "--res", "600", "--sigma", "0c",
               "--out", "nodir/w.csv", "--matrix", "m.txt"])
@example(argv=["field", "periodicity", "3", "--res", "600", "--sigma", "0c", "--out", "s.csv"])
@example(argv=["resolve-field", "[3,9]", "--res", "100", "--sigma", "0c", "--out", "p.csv"])
@example(argv=["field", "roughness", "3", "--res", "600", "--out", "w.csv", "--matrix", "m.txt"])
@example(argv=["periodicity", DEEP_CHORD, "--jnd", "1200c", "--qmax", "2"])
def test_every_subcommand_exits_0_2_or_3_and_a_failure_leaves_no_trace(argv):
    """User input never makes a subcommand exit 4, and a run that fails leaves its
    directory as it was: the same files with the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("sub", "s.csv.json", "p_p2.csv"):
            (root / name).mkdir()
        (root / "m.txt").write_bytes(b"kept\n")
        before = _listing(root)
        outputs = {i + 1 for i, part in enumerate(argv) if part in ("--out", "--matrix")}
        code = _exit_code([str(root / part) if i in outputs else part for i, part in enumerate(argv)])
        event(f"{argv[0]} exits {code}")
        assert code in (0, 2, 3)
        after = _listing(root)
        if code:
            assert after == before
        else:
            assert not any(name.endswith(".tmp") for name in after)


def _readme_block(heading: str) -> str:
    """The lines of the first fenced block of the README section under ``heading``."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split("```")[1].split("\n", 1)[1]


def _strict_json(text: str):
    # Python's json writes NaN and Infinity, which are not JSON: the constant hook rejects them
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("config", [False, True], ids=["defaults", "readme-config"])
@pytest.mark.parametrize("command", _readme_block("## Command line").splitlines())
def test_every_readme_command_exits_0_with_strict_json(command, config, tmp_path, capsys, monkeypatch):
    """Each README command line, alone and with the README configuration as
    ``--config``, exits 0; its stdout and every sidecar are strict JSON."""
    monkeypatch.delenv("CHORDSPACE_CONFIG", raising=False)
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    name, *argv = shlex.split(command)
    assert name == "chordspace"
    if config:
        (tmp_path / "config.json").write_text(_readme_block("## Configuration"), encoding="utf-8")
        argv = ["--config", str(tmp_path / "config.json"), *argv]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stderr) == (0, "")
    _strict_json(stdout)
    sidecars = list(run.glob("*.json"))
    assert bool(sidecars) == ("--out" in argv)
    for sidecar in sidecars:
        _strict_json(sidecar.read_text(encoding="utf-8"))
