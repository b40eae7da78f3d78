import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chordspace.cli import main, parse_cents
from chordspace.field import export_matrix
from chordspace.harmonicity import periodicity_field
from chordspace.psychometric import THIRD_QUARTILE_Z, gaussian_smooth


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run_cli(capsys, "field", "periodicity", "2", "--res", "7",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "divide" in err


@pytest.mark.parametrize("res", ["0", "-50"])
@pytest.mark.parametrize(
    "argv",
    [
        ("field", "periodicity", "3"),
        ("field", "transitive", "2", "--from", "[3,9]"),
        ("resolve-field", "[3,9]", "2"),
    ],
)
def test_field_nonpositive_resolution_exits_2(tmp_path, capsys, argv, res):
    out = tmp_path / "a.csv"
    code, stdout, err = run_cli(capsys, *argv, "--res", res, "--out", str(out))
    assert code == 2
    assert "must be positive" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("text", ["nanc", "infc", "-infc", "nan", "inf", "1e308"])
def test_parse_cents_rejects_non_finite(text):
    with pytest.raises(argparse.ArgumentTypeError, match="finite"):
        parse_cents(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("field", "periodicity", "2", "--res", "600", "--sigma", "nanc"),
        ("field", "periodicity", "2", "--res", "600", "--sigma", "infc"),
        ("resolve", "[0,4,7]", "[0,4,7]", "--scope", "nanc"),
        ("resolve", "[0,4,7]", "[0,4,7]", "--scope", "infc"),
    ],
)
def test_non_finite_width_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *(["--out", str(tmp_path / "a.csv")] if argv[0] == "field" else [])])
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
        capsys, "field", "transitive", "2", "--from", "[3,9]", "--scope", "100c",
        "--res", "50", "--sigma", "0c", "--out", str(out),
    )
    assert code == 0
    panels = json.loads(stdout)["panels"]
    assert [p["value_name"] for p in panels] == [
        "log2_transitive_periodicity", "log2_periodicity",
    ]
    assert (tmp_path / "win.csv").exists()
    assert (tmp_path / "win_p2.csv").exists()

    code2, stdout2, _ = run_cli(
        capsys, "resolve-field", "[3,9]", "2", "--scope", "100c",
        "--res", "50", "--sigma", "0c", "--out", str(tmp_path / "win2.csv"),
    )
    assert code2 == 0
    assert (tmp_path / "win2.csv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "field_args,message",
    [
        (("transitive", "2", "--from", "[3,9]", "--scope", "200c", "--res", "10"), "--matrix"),
        (("periodicity", "2", "--res", "10"), "matrix export is defined for 2-d fields only"),
        (("roughness", "4", "--res", "100"), "matrix export is defined for 2-d fields only"),
    ],
    ids=["transitive", "periodicity-dyad", "roughness-tetrad"],
)
def test_field_transitive_rejects_matrix_before_computing(tmp_path, capsys, field_args, message):
    code, stdout, err = run_cli(
        capsys, "field", *field_args,
        "--out", str(tmp_path / "w.csv"), "--matrix", str(tmp_path / "m.txt"),
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


def test_readme_window_command_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CHORDSPACE_CONFIG", raising=False)
    code, stdout, _ = run_cli(
        capsys, "resolve-field", "[3,9]", "2", "--scope", "200c", "--res", "10",
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


def test_field_transitive_requires_from(tmp_path, capsys):
    code, _, err = run_cli(capsys, "field", "transitive", "2",
                           "--res", "50", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "--from" in err


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
        ("field", "transitive", "{size}", "--from", "[3,9]"),
        ("resolve-field", "[3,9]", "{size}"),
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
@example(command=("resolve-field", "[0]", "{size}"), size=1, res="1", sigma=None,
         scope="100000000000c")
def test_field_commands_never_exit_internal(command, size, res, sigma, scope):
    """User input never makes the field commands exit 4 (internal error)."""
    argv = [part.format(size=size) for part in command] + ["--res", res]
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
        (("field", "transitive", "2", "--from", "[0,20000]", "--scope", "100c", "--res", "100",
          "--out", "{out}"), "overflows a float"),
        (("resolve-field", "[0,20000]", "2", "--scope", "50c", "--res", "50", "--out", "{out}"),
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
        (("field", "transitive", "2", "--from", "[0,13]", "--scope", "100c", "--res", "50",
          "--out", "{out}"), "one octave"),
        (("resolve-field", "[0,13]", "2", "--scope", "100c", "--res", "50", "--out", "{out}"),
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
