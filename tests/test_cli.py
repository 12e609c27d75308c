import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from catalog_strategies import catalog_texts
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lorentzsky import (SL2CElement, StandardDecomposition, boost_axis, classify_component,
                        recompose, rotation_about_axis, rotation_embed, sl2c_to_lorentz,
                        su2_from_axis_angle, validate_lorentz)
from lorentzsky.cli import _classify, cli_main

LN2 = 0.6931471805599453


def matrix_json(m) -> str:
    return json.dumps({"m": np.asarray(m, dtype=float).tolist()})


def run(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_identity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["classify"], matrix_json(np.eye(4)))
    assert code == 0
    assert out.strip() == "ProperOrthochronous"


def test_classify_parity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["classify"],
                       matrix_json(np.diag([1.0, -1, -1, -1])))
    assert code == 0
    assert out.strip() == "ImproperOrthochronous"


def test_classify_rejects_non_lorentz_with_residual(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["classify"],
                       matrix_json(np.diag([2.0, 1, 1, 1])))
    assert code == 1
    assert "residual" in err
    assert "3" in err


def test_decompose_round_trip(capsys, monkeypatch):
    lam = boost_axis((0.0, 0.0, 1.0), LN2)
    code, out, _ = run(capsys, monkeypatch, ["decompose"], matrix_json(lam.entries))
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == pytest.approx(LN2, abs=1e-11)
    r1, r2 = np.array(payload["r1"]), np.array(payload["r2"])
    assert np.abs(r1.T @ r1 - np.eye(3)).max() < 1e-9


def test_decompose_non_lorentz_exits_1(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["decompose"],
                       matrix_json(1.5 * np.eye(4)))
    assert code == 1
    assert "residual" in err


def test_lift_boost(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["lift"],
                       matrix_json(boost_axis((0.0, 0.0, 1.0), 2.0).entries))
    assert code == 0
    payload = json.loads(out)
    assert payload["a"][0] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert payload["d"][0] == pytest.approx(math.exp(1.0), abs=1e-10)
    assert payload["b"] == [0.0, 0.0]


def test_lift_rejects_antichronous(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["lift"],
                       matrix_json(np.diag([-1.0, -1.0, 1.0, 1.0])))
    assert code == 1
    assert "proper orthochronous" in err


def test_mobius_points_with_infinity(capsys, monkeypatch):
    payload = {
        "a": [0.0, 0.0], "b": [1.0, 0.0], "c": [-1.0, 0.0], "d": [0.0, 0.0],
        "points": [[0.0, 0.0], "inf", [2.0, 0.0]],
    }
    code, out, _ = run(capsys, monkeypatch, ["mobius"], json.dumps(payload))
    assert code == 0
    images = json.loads(out)["points"]
    assert images[0] == "inf"              # 1/(-z) at z = 0
    assert images[1] == [0.0, 0.0]         # infinity lands on 0
    assert images[2][0] == pytest.approx(-0.5)


def test_mobius_rejects_degenerate_matrix(capsys, monkeypatch):
    payload = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 2.0, "points": []}
    code, _, err = run(capsys, monkeypatch, ["mobius"], json.dumps(payload))
    assert code == 1
    assert "determinant" in err


def test_mobius_checks_the_determinant_at_the_absolute_tolerance(capsys, monkeypatch):
    # JSON input takes SL2CElement's rule: ad - bc = 1 within the absolute 1e-9 for entries
    # of size 1, and within 64 eps (|ad| + |bc|) past it, which still refuses this singular
    # matrix (it passes from entries of ~6e6)
    payload = {"a": 1.000000002, "b": 0.0, "c": 0.0, "d": 1.0, "points": [[0.0, 0.0]]}
    code, out, err = run(capsys, monkeypatch, ["mobius"], json.dumps(payload))
    assert (code, out, err) == (1, "", "error: determinant (1.000000002+0j) is not 1 "
                                       "within 1.000e-09\n")
    payload = {"a": 4e4, "b": 4e4, "c": 4e4, "d": 4e4, "points": [[0.0, 0.0]]}
    code, out, err = run(capsys, monkeypatch, ["mobius"], json.dumps(payload))
    assert (code, out, err) == (1, "", "error: determinant 0j is not 1 within 4.547e-05\n")


def test_mobius_rejects_bad_json(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["mobius"], "{not json")
    assert code == 1
    assert "invalid JSON" in err


def test_aberrate_identity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["aberrate", "--chi", "0", "--theta-deg", "45"])
    assert code == 0
    assert "theta_prime_deg 45" in out
    assert "doppler 1" in out


def test_aberrate_json(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["aberrate", "--chi", str(LN2), "--theta-deg", "90", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_prime_deg"] == pytest.approx(
        math.degrees(2 * math.atan(0.5)), abs=1e-9)
    assert payload["doppler"] == pytest.approx(1.25, abs=1e-11)


def test_aberrate_rejects_out_of_range(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch,
                       ["aberrate", "--chi", "1", "--theta-deg", "200"])
    assert code == 1
    assert "theta-deg" in err


def test_usage_errors_exit_2(capsys, monkeypatch):
    assert run(capsys, monkeypatch, ["aberrate", "--nope", "1"])[0] == 2
    assert run(capsys, monkeypatch, ["frobnicate"])[0] == 2
    assert run(capsys, monkeypatch, [])[0] == 2


def test_twelve_significant_digits(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["aberrate", "--chi", "0.1", "--theta-deg", "60"])
    assert code == 0
    value = out.splitlines()[0].split()[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 11


def test_render_end_to_end(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "stars.csv"
    catalog.write_text(
        "name,ra_deg,dec_deg,vmag,temp_k\n"
        "pole,0.0,90.0,2.0,6000\n"
        "mid,120.0,45.0,3.5,9000\n")
    out_file = tmp_path / "sky.svg"
    code, out, _ = run(capsys, monkeypatch, [
        "render", "--chi", str(LN2), "--input", str(catalog),
        "--out", str(out_file), "--json"])
    assert code == 0
    assert out_file.read_bytes().startswith(b"<?xml")
    payload = json.loads(out)
    pole = next(s for s in payload["stars"] if s["name"] == "pole")
    assert pole["doppler"] == pytest.approx(2.0, abs=1e-11)
    assert pole["temp_k"] == pytest.approx(12000.0, abs=1e-7)
    assert pole["vmag"] == pytest.approx(2.0 - 10 * math.log10(2.0), abs=1e-9)


def test_render_overlong_field_exits_1(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("name,ra_deg,dec_deg,vmag,temp_k\n" + "x" * 200_000 + ",1,2,3,4000\n")
    code, out, err = run(capsys, monkeypatch, [
        "render", "--input", str(catalog), "--out", str(tmp_path / "x.svg"), "--json"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2: field larger than field limit")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x.svg").exists()


def test_render_missing_input_exits_1(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, [
        "render", "--input", str(tmp_path / "none.csv"),
        "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "error" in err


def test_render_ppm_format(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("name,ra_deg,dec_deg,vmag,temp_k\npole,0.0,90.0,2.0,6000\n")
    out_file = tmp_path / "sky.ppm"
    code, _, _ = run(capsys, monkeypatch, [
        "render", "--input", str(catalog), "--out", str(out_file),
        "--format", "ppm", "--width", "64", "--height", "48"])
    assert code == 0
    assert out_file.read_bytes().startswith(b"P6\n64 48\n255\n")


def test_package_imports_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import lorentzsky.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("chi", ["nan", "inf", "-inf", "1000", "-1000"])
def test_aberrate_rejects_unusable_rapidity(capsys, monkeypatch, chi):
    code, out, err = run(capsys, monkeypatch, ["aberrate", f"--chi={chi}", "--theta-deg", "45"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: rapidity")


@pytest.mark.parametrize("chi", ["nan", "inf", "-inf", "1000"])
def test_render_rejects_unusable_rapidity(tmp_path, capsys, monkeypatch, chi):
    catalog = tmp_path / "stars.csv"
    catalog.write_text("name,ra_deg,dec_deg,vmag,temp_k\npole,0.0,90.0,2.0,6000\n")
    code, out, err = run(capsys, monkeypatch, [
        "render", f"--chi={chi}", "--input", str(catalog), "--out", str(tmp_path / "x.svg"),
        "--json"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: rapidity")
    assert not (tmp_path / "x.svg").exists()


def test_render_refuses_oversized_image_before_reading(tmp_path, capsys, monkeypatch):
    # the input does not exist: the size is refused before it is opened
    code, _, err = run(capsys, monkeypatch, [
        "render", "--input", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x.ppm"),
        "--format", "ppm", "--width", "4097", "--height", "4096"])
    assert code == 1
    assert err == "error: 4097 x 4096 pixels exceeds the limit of 16777216 (4096 x 4096)\n"
    code, _, err = run(capsys, monkeypatch, [
        "render", "--input", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x.ppm"),
        "--width", "8"])
    assert code == 1
    assert err == "error: width and height must be at least 16 pixels\n"


def test_render_bad_choices_are_usage_errors(tmp_path, capsys, monkeypatch):
    for flag, value in (("--projection", "gnomonic"), ("--format", "png"),
                        ("--hemisphere", "east")):
        code, _, _ = run(capsys, monkeypatch, [
            "render", "--input", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x"),
            flag, value])
        assert code == 2


def test_render_unreadable_input_exits_1(tmp_path, capsys, monkeypatch):
    # a directory: IsADirectoryError, an OSError that is not FileNotFoundError
    code, _, err = run(capsys, monkeypatch, [
        "render", "--input", str(tmp_path), "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert err.startswith("error: ")


# A JSON integer with 400 digits parses to an int that float() cannot hold.
HUGE_INT = "1" + "0" * 400
HUGE_MATRIX = f'{{"m": [[{HUGE_INT}, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}'
HUGE_MOBIUS = [f'{{"a": {HUGE_INT}, "b": 0, "c": 0, "d": 1, "points": []}}',
               f'{{"a": 1, "b": 0, "c": 0, "d": 1, "points": [[{HUGE_INT}, 0]]}}']
DEEP_JSON = "[" * 100_000
# A finite point whose modulus abs() cannot return (it raised OverflowError).
NEAR_MAX_POINT = ('{"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, '
                  '"points": [[1.2711610061536462e+308, 1.2711610061536464e+308]]}')


def test_point_near_the_double_limit_is_infinity(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["mobius"], NEAR_MAX_POINT)
    assert (code, out, err) == (0, '{"points": ["inf"]}\n', "")


@pytest.mark.parametrize("command, text", [("classify", HUGE_MATRIX), ("decompose", HUGE_MATRIX),
                                           ("lift", HUGE_MATRIX), ("mobius", HUGE_MOBIUS[0]),
                                           ("mobius", HUGE_MOBIUS[1])])
def test_integer_too_large_for_a_float_exits_1(capsys, monkeypatch, command, text):
    code, out, err = run(capsys, monkeypatch, [command], text)
    assert code == 1
    assert out == ""
    assert "must be" in err


@pytest.mark.parametrize("command, text", [
    ("classify", '{"m": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, true]]}'),
    ("mobius", '{"a": true, "b": 0, "c": 0, "d": 1, "points": []}'),
    ("mobius", '{"a": 1, "b": 0, "c": 0, "d": [1, false], "points": []}'),
    ("mobius", '{"a": 1, "b": 0, "c": 0, "d": 1, "points": [[true, 0]]}')])
def test_json_booleans_are_not_numbers(capsys, monkeypatch, command, text):
    code, out, err = run(capsys, monkeypatch, [command], text)
    assert code == 1
    assert out == ""
    assert "must be a" in err


@pytest.mark.parametrize("command, text", [
    ("classify", '{"m": [["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'),
    ("decompose", '{"m": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "1", 0], [0, 0, 0, 1]]}'),
    ("lift", '{"m": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, "1.0"]]}'),
    ("mobius", '{"a": "1", "b": 0, "c": 0, "d": 1, "points": []}'),
    ("mobius", '{"a": ["1", 0], "b": 0, "c": 0, "d": 1, "points": []}'),
    ("mobius", '{"a": 1, "b": 0, "c": 0, "d": [1, "0"], "points": []}'),
    ("mobius", '{"a": 1, "b": 0, "c": 0, "d": 1, "points": [["0.5", 0]]}')])
def test_json_strings_are_not_numbers(capsys, monkeypatch, command, text):
    code, out, err = run(capsys, monkeypatch, [command], text)
    assert code == 1
    assert out == ""
    assert "must be a" in err


@pytest.mark.parametrize("command, text, message", [
    ("classify", '{"m": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}',
     '"m" must be a 4x4 array of numbers'),
    ("lift", '{"m": [1, 0, 0, 0]}', '"m" must be a 4x4 array of numbers'),
    ("mobius", '{"a": 1, "b": 0, "c": 0, "d": 1, "points": "inf"}',
     '"points" must be a list of [re, im] pairs or "inf"'),
    ("mobius", '{"a": 1, "b": 0, "c": 0, "d": 1}',
     '"points" must be a list of [re, im] pairs or "inf"'),
    ("mobius", '[1, 0, 0, 1]', "expected a JSON object with keys a, b, c, d, points")])
def test_json_of_the_wrong_shape_exits_1(capsys, monkeypatch, command, text, message):
    code, out, err = run(capsys, monkeypatch, [command], text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# Entries of 1e308 overflow the metric residual to inf.
OVERFLOWING_MATRIX = '{"m": [[1e308, 0, 0, 0], [0, 1e308, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'


@pytest.mark.parametrize("command", ["classify", "decompose", "lift"])
def test_overflowing_matrix_prints_only_the_error_line(command):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "lorentzsky.cli", command],
                          input=OVERFLOWING_MATRIX, capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: metric-preservation residual inf exceeds tolerance\n"


OBLIQUE_BOOST = matrix_json(boost_axis((0.6, 0.0, 0.8), LN2).entries)
INVERSION = json.dumps({"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [-1.0, 0.0], "d": [0.0, 0.0],
                        "points": [[0.0, 0.0], "inf", [2.0, 0.5]]})
# ad - bc = 0, which SL2CElement's rule refuses at this size
SINGULAR_MOBIUS = '{"a": 4e4, "b": 4e4, "c": 4e4, "d": 4e4, "points": [[0.0, 0.0]]}'


@pytest.mark.parametrize("command, text", [("classify", OBLIQUE_BOOST),
                                           ("decompose", OBLIQUE_BOOST),
                                           ("lift", OBLIQUE_BOOST), ("mobius", INVERSION)])
def test_input_and_out_files_carry_the_bytes_of_stdin_and_stdout(tmp_path, capsys, monkeypatch,
                                                                 command, text):
    code, printed, err = run(capsys, monkeypatch, [command], text)
    assert (code, err) == (0, "") and printed
    source, target = tmp_path / "in.json", tmp_path / "out.txt"
    source.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(source), "--out", str(target)]
    assert run(capsys, monkeypatch, argv) == (0, "", "")
    assert target.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("command, text, message", [
    ("classify", OVERFLOWING_MATRIX, "metric-preservation residual inf exceeds tolerance"),
    ("decompose", OVERFLOWING_MATRIX, "metric-preservation residual inf exceeds tolerance"),
    ("lift", OVERFLOWING_MATRIX, "metric-preservation residual inf exceeds tolerance"),
    ("mobius", SINGULAR_MOBIUS, "determinant 0j is not 1 within 4.547e-05")])
def test_refused_input_file_writes_no_out_file(tmp_path, capsys, monkeypatch, command, text,
                                               message):
    source, target = tmp_path / "in.json", tmp_path / "out.txt"
    source.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(source), "--out", str(target)]
    assert run(capsys, monkeypatch, argv) == (1, "", f"error: {message}\n")
    assert not target.exists()


@pytest.mark.parametrize("command", ["classify", "decompose", "lift"])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
def test_group_commands_refuse_boosts_past_the_absolute_tolerance(capsys, monkeypatch,
                                                                  command, axis):
    # JSON matrices take the library's rule, whose floor is the absolute 1e-9: for a boost
    # at chi = 1 (entries ~1.5, rounding bound ~3e-14) the floor governs, so the exact boost
    # passes and one written with an entry 1e-8 off, a residual of ~2e-8, is refused
    m = boost_axis(axis, 1.0).entries.copy()
    code, out, err = run(capsys, monkeypatch, [command], matrix_json(m))
    assert (code, err) == (0, "")
    m[2, 2] += 1e-8
    code, out, err = run(capsys, monkeypatch, [command], matrix_json(m))
    assert (code, out) == (1, "")
    assert err.startswith("error: metric-preservation residual ")
    assert err.endswith(" exceeds tolerance\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["classify", "decompose", "lift"])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
def test_group_commands_accept_the_boosts_the_library_builds(capsys, monkeypatch, command, axis):
    # JSON matrices take the library's rule, so a boost's rounding residual, ~cosh^2(chi)
    # ulp, passes at any rapidity the library builds; at the absolute 1e-9 it failed from ~8
    for chi in (7.9, 9.0, 12.0, 20.0, 35.0, 100.0, 300.0):
        code, out, err = run(capsys, monkeypatch, [command],
                             matrix_json(boost_axis(axis, chi).entries))
        assert (code, err) == (0, "") and out
        if command == "classify":
            assert out == "ProperOrthochronous\n"


_UNIT = (st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
         .map(lambda v: np.array(v) / math.hypot(*v)))


@st.composite
def _library_matrices(draw):
    """A matrix the library computes, with chi <= 30: a boost along any axis, recompose of
    r1 . B . r2 and that product itself, the cover of u1 diag(e^-t, e^t) u2 for t <= 7 (entries
    up to e^7), an inverse, or a product of two boosts along one axis."""
    n, chi, t = draw(_UNIT), draw(st.floats(0.0, 30.0)), draw(st.floats(0.0, 7.0))
    r1, r2 = (rotation_about_axis(draw(_UNIT), draw(st.floats(-math.pi, math.pi)))
              for _ in range(2))
    u1, u2 = (su2_from_axis_angle(draw(_UNIT), draw(st.floats(-math.pi, math.pi))).to_sl2c()
              for _ in range(2))
    split = draw(st.floats(0.0, 1.0))
    build = {"boost_axis": lambda: boost_axis(n, chi),
             "recompose": lambda: recompose(StandardDecomposition(r1, chi, r2)),
             "product": lambda: rotation_embed(r1) @ boost_axis(n, chi) @ rotation_embed(r2),
             "cover": lambda: sl2c_to_lorentz(u1 @ SL2CElement(math.exp(-t), 0.0, 0.0,
                                                               math.exp(t)) @ u2),
             "inverse": lambda: recompose(StandardDecomposition(r1, chi, r2)).inverse(),
             "same_axis": lambda: boost_axis(n, split * chi) @ boost_axis(n, chi - split * chi)}
    return build[draw(st.sampled_from(sorted(build)))]()


@settings(deadline=None)
@given(_library_matrices())
def test_library_output_revalidates_as_input(lam):
    # the worst seen in 30000 rotation . boost . rotation products was 7.73 eps m00^2; 16 leaves
    # a margin for the tail of new draws, and the rule allows 64
    assert lam.residual <= 16 * 2.0 ** -52 * max(1.0, lam.entries[0, 0] ** 2)
    assert validate_lorentz(lam.entries) == lam
    label = _classify(json.loads(matrix_json(lam.entries)))
    assert label == classify_component(lam).value + "\n" == "ProperOrthochronous\n"


@pytest.mark.parametrize("command", ["classify", "decompose", "lift", "mobius"])
def test_deeply_nested_json_exits_1(capsys, monkeypatch, command):
    code, out, err = run(capsys, monkeypatch, [command], DEEP_JSON)
    assert code == 1
    assert out == ""
    assert err == "error: invalid JSON input: nested too deeply\n"


_JSON_NUMBERS = st.integers() | st.floats()
_JSON_LEAVES = st.none() | st.booleans() | _JSON_NUMBERS | st.text(max_size=4) | st.just("inf")
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=5),
    max_leaves=20)
_MATRICES = st.fixed_dictionaries({"m": st.lists(st.lists(_JSON_NUMBERS | _JSON_LEAVES,
                                                          min_size=4, max_size=4),
                                                 min_size=4, max_size=4)})
# Boosts up to and past the rapidity where validation and the lift give up.
_BOOSTS = st.builds(lambda chi, n: {"m": boost_axis(n / np.linalg.norm(n), chi).entries.tolist()},
                    st.floats(0.0, 40.0),
                    st.sampled_from([np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, -2.0])]))
_PAIRS = st.lists(_JSON_NUMBERS, min_size=2, max_size=2)
_POINTS = st.lists(_PAIRS | _JSON_NUMBERS | st.just("inf"), max_size=4)
_MOBIUS = st.fixed_dictionaries({k: _JSON_NUMBERS | _PAIRS for k in "abcd"},
                                optional={"points": _POINTS})
# a d - b c = 1, so these reach the Mobius action itself.
_UNIT_MOBIUS = st.builds(lambda a, b, c, points: {"a": a, "b": b, "c": c,
                                                  "d": (1.0 + b * c) / a, "points": points},
                         st.floats(0.1, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                         _POINTS)
_STDIN = (st.text(max_size=30)
          | st.one_of(_JSON_VALUES, _MATRICES, _BOOSTS, _MOBIUS, _UNIT_MOBIUS).map(json.dumps))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["classify", "decompose", "lift", "mobius"]), _STDIN)
@example("classify", HUGE_MATRIX)
@example("decompose", HUGE_MATRIX)
@example("lift", HUGE_MATRIX)
@example("mobius", HUGE_MOBIUS[0])
@example("mobius", HUGE_MOBIUS[1])
@example("mobius", NEAR_MAX_POINT)
@example("classify", DEEP_JSON)
@example("decompose", DEEP_JSON)
@example("lift", DEEP_JSON)
@example("mobius", DEEP_JSON)
def test_json_stdin_never_escapes_cli_main(command, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")


# argv tokens: {catalog}, {out}, {dir} and {missing} stand for paths in a temporary directory.
_NUMBER_ARGS = st.one_of(st.floats().map(repr), st.integers(-10**30, 10**30).map(str),
                         st.sampled_from(["nan", "-inf", "1e400", "", "x", "0x1p3", "-1", "--json"]))
_SIZE_ARGS = st.one_of(*[st.integers(-3, 48).map(str)] * 4,
                       st.sampled_from(["99999", "1.5", "", "abc"]))
_PATH_ARGS = st.sampled_from(["{catalog}", "{out}", "{dir}", "{missing}", ""])
_RENDER_OPTIONS = {
    "--chi": _NUMBER_ARGS, "--input": _PATH_ARGS, "--out": _PATH_ARGS,
    "--format": st.sampled_from(["svg", "ppm"] * 4 + ["png"]),
    "--projection": st.sampled_from(["stereographic", "orthographic"] * 4 + ["gnomonic"]),
    "--hemisphere": st.sampled_from(["north", "south", "both"] * 3 + ["east"]),
    "--width": _SIZE_ARGS, "--height": _SIZE_ARGS, "--json": None,
}
_ABERRATE_OPTIONS = {"--chi": _NUMBER_ARGS, "--theta-deg": _NUMBER_ARGS, "--json": None,
                     "--out": _PATH_ARGS, "-h": None}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["render", "render", "aberrate"]))
    options = _RENDER_OPTIONS if command == "render" else _ABERRATE_OPTIONS
    # mostly the required options; argparse keeps the last of repeated ones
    required = {"render": ["--input", "{catalog}", "--out", "{out}"],
                "aberrate": ["--chi=0.5", "--theta-deg=30"]}[command]
    argv = [command] + (required if draw(st.integers(0, 3)) else [])
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        if options[flag] is None:
            argv.append(flag)
        elif not draw(st.integers(0, 19)):
            argv.append(flag)  # its value missing
        else:  # "--chi=-1e+300" passes a negative value that "--chi -1e+300" cannot
            value = draw(options[flag])
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if not draw(st.integers(0, 19)):
        argv.append(draw(st.sampled_from(["--bogus", "stray", "-"])))
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv(), catalog_texts())
@example(["render", "--input", "{catalog}", "--out", "{out}", "--format", "ppm", "--json"],
         "name,ra_deg,dec_deg,vmag,temp_k\na,1,90,3,4000\n")
@example(["aberrate", "--chi", "1", "--theta-deg", "90", "--out", "{dir}"], "")
# a dropped star's diagnostic must not precede the error of a failed write
@example(["render", "--input", "{catalog}", "--out", "{out}", "--json", "--out", "{dir}"],
         "0,0.0,-1.0,0.0,1000.0")
# a catalog that is not UTF-8: "\udcff" is written as the byte 0xff
@example(["render", "--input", "{catalog}", "--out", "{out}"],
         "name,ra_deg,dec_deg,vmag,temp_k\na\udcff,1,2,3,4\n")
def test_argv_never_escapes_cli_main(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"catalog": Path(tmp, "stars.csv"), "out": Path(tmp, "image"),
                 "dir": Path(tmp), "missing": Path(tmp, "no", "such")}
        paths["catalog"].write_text(text, encoding="utf-8", errors="surrogateescape",
                                    newline="")
        argv = [token.format(**paths) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)   # where a relative path such as "--out stray" is written
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
    if "\udcff" in text:  # only in the example whose catalog is not UTF-8
        assert (code, err.getvalue()) == (1, "error: line 2: not UTF-8: byte 0xff\n")
