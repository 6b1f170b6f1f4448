"""Command-line front end: config parsing, artifacts, exit codes, sweeps,
and reproducibility."""

import contextlib
import hashlib
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_HEADER_VALUES, SMALL, read_norms_csv
import fracsys
from fracsys import cli, solver
from fracsys.cli import main
from fracsys.config import ConfigError, parse_config, parse_config_text
from fracsys.kernels import KernelSpec, SpectralGrid, eval_density_grid
from fracsys.solver import TimeMesh, mesh_grading, read_snapshot

BASE = """
alpha1 = 2.0
alpha2 = 2.0
beta1 = 4.0
beta2 = 4.0
rho1 = 1.0
rho2 = 1.0
sigma1 = 0.0
sigma2 = 0.0
dim = 1
grid_n = 512
half_length = 30.0
horizon = 4.0
steps = 40
init = stable_kernel
epsilon = 0.01
delta = 0.3
run_id = t
snapshot_stride = 8
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_parse_defaults_and_comments():
    cfg = parse_config_text(BASE + "# a comment\nwidth = 2.5 # inline\n")
    assert cfg.params.beta == (4.0, 4.0)
    assert cfg.run.init.width == 2.5
    assert cfg.run.mesh == TimeMesh(4.0, 40)
    assert mesh_grading(cfg.params.sigma) == 1.0    # derived, not a key
    assert cfg.delta == 0.3


def test_parse_unknown_key_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("alpha1 = 2\nwhat = 3\n", source="f.cfg")
    assert "f.cfg:2" in str(err.value) and "what" in str(err.value)


def test_parse_duplicate_and_malformed():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("alpha1 = 2\nalpha1 = 3\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("alpha1\n", source="x")


def test_parse_missing_required():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config_text("alpha1 = 2\n")


def test_parse_bad_number_and_run_id():
    with pytest.raises(ConfigError, match="needs a finite number"):
        parse_config_text(BASE.replace("epsilon = 0.01", "epsilon = tiny"))
    with pytest.raises(ConfigError, match="filesystem-safe"):
        parse_config_text(BASE.replace("run_id = t", "run_id = a/b"))


def test_parse_invalid_params_reported():
    with pytest.raises(ConfigError, match="beta"):
        parse_config_text(BASE.replace("beta1 = 4.0", "beta1 = 0.5"))


# every optional key at a value other than its default
ALL_KEYS = BASE.replace("init = stable_kernel\n", "").replace("epsilon = 0.01\n", "") \
    .replace("run_id = t\n", "").replace("snapshot_stride = 8\n", "") + """
init = gaussian
epsilon = 0.02
width = 1.5
init_path = data/phi.bin
snapshot_stride = 4
run_id = golden
output_dir = elsewhere
sweep_param = beta
sweep_values = 3,4.5
"""

ALL_KEYS_RESOLVED = (
    "alpha1 = 2\nalpha2 = 2\nbeta1 = 4\nbeta2 = 4\nrho1 = 1\nrho2 = 1\nsigma1 = 0\n"
    "sigma2 = 0\ndim = 1\ngrid_n = 512\nhalf_length = 30\nhorizon = 4\nsteps = 40\n"
    "init = gaussian\nepsilon = 0.02\nwidth = 1.5\ninit_path = data/phi.bin\n"
    "snapshot_stride = 4\ndelta = 0.29999999999999999\n"
    "run_id = golden\noutput_dir = elsewhere\nsweep_param = beta\nsweep_values = 3,4.5\n")


def test_resolved_text_and_hash_are_frozen():
    # config_hash() keys resumable sweeps, so these bytes must not drift; both
    # hashes were re-taken when `grading` left the keys (the solver derives it
    # from sigma), so sweeps started before that do not resume
    cfg = parse_config_text(ALL_KEYS)
    assert cfg.resolved_text() == ALL_KEYS_RESOLVED
    assert cfg.config_hash() == "3ae1ed62b69d40ff5c3b09eb25c7e295008d795258e5456545a60860492eea24"
    assert parse_config_text(BASE).config_hash() == \
        "0ff39ead3af6e67234c1fdc57c737bf6389cb2ee752b671255574ff657f4d505"


# the manifest of the BASE run as written before `dealias`, `coupling_scale`,
# `picard_tol`, `picard_max_iter` and `grading` were retired, with the sha256 of every artifact (taken
# with numpy 2.4.6 on x86-64 Linux, as ASYM_2D_GOLDEN below); the verification.txt
# digest was re-taken when the sup-norm exponent became exact (-1/3 to the last bit).
# Re-taken when each iterate became the inverse of its whole spectrum and each step
# started from the spectrum the last one carried: norms.csv, snapshots 1-5 and
# verification.txt moved by round-off (norms within 8.7e-16 relative), so the
# manifests of earlier versions reproduce their runs to 1e-13, not byte for byte
RETIRED_KEYS_MANIFEST = """# fracsys run manifest (feed back to --config to reproduce)
# config_sha256 = e0b0aeb02c43612fd3903150831e478f793c5e9a61bbc3b7efae32e3ea3641aa
alpha1 = 2
alpha2 = 2
beta1 = 4
beta2 = 4
rho1 = 1
rho2 = 1
sigma1 = 0
sigma2 = 0
dim = 1
grid_n = 512
half_length = 30
horizon = 4
steps = 40
grading = 1
init = stable_kernel
epsilon = 0.01
width = 1
init_path =
picard_tol = 1e-10
picard_max_iter = 25
dealias = two_thirds
snapshot_stride = 8
coupling_scale = 1
delta = 0.29999999999999999
run_id = t
output_dir = out
sweep_param =
sweep_values =
# sha256 norms.csv = 210a86930830d6b2eea48d34e5e4f0fb787028028aac04fec3791aea3e8282bf
# sha256 snap_000000.bin = b97b8678084b7d5db14f1bf20edb4f6458356dee211fa8a0e1ec5fb6dd6bba02
# sha256 snap_000001.bin = 92fbabdbe78b728abcad23f96d68554d9964b1f6b7f08497eeb53e93cdc39fff
# sha256 snap_000002.bin = 3105c5776283133a61b5ca3c6439b2fc2ecdb062aed17a6b3cfba4dbd3362533
# sha256 snap_000003.bin = 03974a5955d3cdd975624ac1377a347d415aae1f98290f20ace9982e2732a3a0
# sha256 snap_000004.bin = 9d80838cce41949ed558650d1e221ea2bb93232c05825d95c65be25e1f236758
# sha256 snap_000005.bin = 407682020e35df80bc91d05adb1cba66edf7d4864139758ce3a629c530c1eb91
# sha256 verification.txt = e095423eb09d90ca8b119862f9aafe6bc7f8f5548125b23d41182e59664c74d1
"""


def test_manifest_with_retired_keys_reproduces_its_run(tmp_path):
    out = tmp_path / "old"
    assert main(["solve", "--config", _write(tmp_path, RETIRED_KEYS_MANIFEST),
                 "--out", str(out)]) == 0
    recorded = dict(line.removeprefix("# sha256 ").split(" = ")
                    for line in RETIRED_KEYS_MANIFEST.splitlines() if line.startswith("# sha256 "))
    assert len(recorded) == 8
    for name, digest in recorded.items():
        assert hashlib.sha256((out / "t" / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("lines", ["dealias = two_thirds\ncoupling_scale = 1\n",
                                   "coupling_scale = 1.0\n", "coupling_scale = 10e-1\n",
                                   "picard_tol = 1e-10\npicard_max_iter = 25\n",
                                   "picard_tol = 1.0e-10\n", "grading = 1\n", "grading = 1.0\n"])
def test_retired_keys_at_their_value_are_dropped(lines):
    assert parse_config_text(BASE + lines).resolved_text() == parse_config_text(BASE).resolved_text()


@pytest.mark.parametrize("line, accepted", [("coupling_scale = 0", "1"),
                                            ("dealias = none", "two_thirds"),
                                            ("picard_tol = 1e-9", "1e-10"),
                                            ("picard_tol = nan", "1e-10"),
                                            ("picard_max_iter = 30", "25"),
                                            ("grading = 2", "1")])
def test_retired_key_at_another_value_fails_cleanly(tmp_path, capsys, line, accepted):
    cfg = _write(tmp_path, BASE + line + "\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    captured = capsys.readouterr()
    key, _, value = line.partition(" = ")
    assert captured.err == (f"error: {cfg}:{BASE.count(chr(10)) + 1}: key {key!r} is retired "
                            f"and accepts only {accepted}, got {value!r}\n")
    assert captured.out == ""
    assert not (tmp_path / "bad").exists()


# the retired grading accepts the value that the config's sigma derives, so an
# old manifest keeps its mesh or is refused; it is never re-meshed
@pytest.mark.parametrize("sigma, derived, other", [("0", "1", "2"), ("-0.5", "2", "1"),
                                                   ("0.5", "1.3333333333333333", "1")])
def test_retired_grading_accepts_the_value_its_sigma_derives(tmp_path, capsys, sigma, derived,
                                                             other):
    text = _set(_set(BASE, f"sigma1 = {sigma}"), f"sigma2 = {sigma}")
    assert parse_config_text(text + f"grading = {derived}\n").resolved_text() \
        == parse_config_text(text).resolved_text()
    cfg = _write(tmp_path, text + f"grading = {other}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == (f"error: {cfg}:{text.count(chr(10)) + 1}: key 'grading' "
                                       f"is retired and accepts only {derived}, got {other!r}\n")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("text", [BASE, ALL_KEYS])
def test_resolved_text_parses_back_to_itself(text):
    resolved = parse_config_text(text).resolved_text()
    assert parse_config_text(resolved).resolved_text() == resolved


# ---------------------------------------------------------------------------
# regime command

def test_regime_command_output(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert main(["regime", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "regime = GlobalSmallDataBounded" in out
    assert "window_lo = 0.25" in out
    assert "window_hi = 0.375" in out
    assert "s_1 = 5" in out


def test_regime_no_guarantee_exit_zero(tmp_path, capsys):
    text = BASE.replace("beta1 = 4.0", "beta1 = 2.0").replace("beta2 = 4.0", "beta2 = 2.0")
    text = text.replace("delta = 0.3", "delta =")
    cfg = _write(tmp_path, text)
    assert main(["regime", "--config", cfg]) == 0
    assert "regime = NoGuarantee" in capsys.readouterr().out


def test_regime_delta_outside_window_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert main(["regime", "--config", cfg, "--delta", "0.9"]) == 1
    assert "outside the admissible window" in capsys.readouterr().err


def test_regime_csv(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert main(["regime", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "regime.csv").read_text().splitlines()
    header = rows[0].split(",")
    values = rows[1].split(",")
    assert dict(zip(header, values))["regime"] == "GlobalSmallDataBounded"


COLD_START = """
import json, sys
import numpy as np
import fracsys.cli
from fracsys.config import parse_config
from fracsys.exponents import classify
from fracsys.kernels import KernelSpec, density_profile

def loaded():
    return sorted(m for m in sys.modules if (m + ".").startswith(("scipy.", "numpy.polynomial.")))

cfg = parse_config(sys.argv[1])
classify(cfg.params, delta=cfg.delta)
code = fracsys.cli.main(["regime", "--config", sys.argv[1]])
before = loaded()
profile = density_profile(KernelSpec(1.5, 2), 1.0, np.linspace(0.0, 5.0, 11))
print(json.dumps({"code": code, "before": before, "after": loaded(),
                  "profile": profile.tolist()}))
"""


def test_cold_start_loads_scipy_only_for_the_2d_quadrature(tmp_path):
    # a fresh interpreter: scipy costs about 0.3 s of every CLI start-up, and
    # numpy.polynomial (for the Gauss-Legendre rule) about 6 ms
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = _write(tmp_path, example)
    env = dict(os.environ, PYTHONPATH=str(Path(fracsys.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", COLD_START, cfg], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    found = json.loads(proc.stdout.splitlines()[-1])
    assert found["code"] == 0
    assert found["before"] == []
    assert "scipy.special" in found["after"]
    assert "numpy.polynomial.legendre" in found["after"]
    assert all(math.isfinite(p) and p > 0.0 for p in found["profile"])


# ---------------------------------------------------------------------------
# solve command

def test_solve_artifacts_and_exit(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    run = out / "t"
    assert (run / "norms.csv").exists()
    assert (run / "manifest.txt").exists()
    assert (run / "verification.txt").exists()
    snaps = sorted(run.glob("snap_*.bin"))
    assert len(snaps) == 6          # nodes 0, 8, ..., 40
    pair, grid, params = read_snapshot(snaps[0])
    assert pair.time == 0.0 and grid.n == 512 and params.beta == (4.0, 4.0)
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("run_id,regime,")
    assert summary[1].startswith("t,GlobalSmallDataBounded")


def test_solve_linear_norms_match_closed_form(tmp_path):
    # data scaled by SMALL run the linear flow; the norms are scaled back
    text = BASE.replace("epsilon = 0.01", f"epsilon = {0.01 * SMALL!r}")
    cfg = _write(tmp_path, text)
    out = tmp_path / "lin"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    series = read_norms_csv(out / "t" / "norms.csv")
    grid = SpectralGrid(1, 512, 30.0)
    spec = KernelSpec(2.0, 1)
    for k in (10, 25, 40):
        t = series.t[k]
        kern = eval_density_grid(spec, 1.0 + t, grid)
        ref_linf = 0.01 * kern.max()
        ref_ls = 0.01 * ((kern**5.0).sum() * grid.spacing) ** 0.2
        assert series.linf[k, 0] / SMALL == pytest.approx(ref_linf, rel=1e-10)
        assert series.ls[k, 0] / SMALL == pytest.approx(ref_ls, rel=1e-10)


def test_solve_divergence_exit_code(tmp_path):
    text = BASE.replace("beta1 = 4.0", "beta1 = 2.0").replace("beta2 = 4.0", "beta2 = 2.0")
    text = text.replace("init = stable_kernel", "init = gaussian")
    text = text.replace("epsilon = 0.01", "epsilon = 30.0")
    text = text.replace("delta = 0.3", "delta =")
    text = text.replace("dim = 1", "dim = 1").replace("horizon = 4.0", "horizon = 5.0")
    cfg = _write(tmp_path, text)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "d")])
    assert code == 2
    # NoGuarantee regime: the s-norm columns stay blank
    rows = (tmp_path / "d" / "t" / "norms.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "" and rows[1].split(",")[5] == ""
    # every check states that the run stopped, and the manifest is written
    lines = (tmp_path / "d" / "t" / "verification.txt").read_text().splitlines()
    assert [line for line in lines if "_skipped" in line] == \
        [f"{name}_skipped = run diverged at t=0.125" for name in ("decay", "linf", "envelope")]
    assert (tmp_path / "d" / "t" / "manifest.txt").exists()


def test_solve_step_rejection_exit_code(tmp_path, capsys):
    # the README example at epsilon = 3: Picard stalls near the blow-up time
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = _write(tmp_path, _set(example, "epsilon = 3"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().out.splitlines()[2:] == ["status = step_rejected",
                                                        "status_time = 1.3"]
    lines = (tmp_path / "r" / "ref" / "verification.txt").read_text().splitlines()
    assert [line for line in lines if "_skipped" in line] == \
        [f"{name}_skipped = run step_rejected at t=1.3" for name in ("decay", "linf", "envelope")]
    assert (tmp_path / "r" / "ref" / "manifest.txt").exists()


@pytest.mark.parametrize("swap", [("epsilon = 0.01", "epsilon = nan"),
                                  ("epsilon = 0.01", "epsilon = -1"),
                                  ("init = stable_kernel", "init = gaussian\nwidth = 0"),
                                  ("epsilon = 0.01", "epsilon = 0")])
def test_solve_rejects_bad_initial_data(tmp_path, capsys, swap):
    cfg = _write(tmp_path, BASE.replace(*swap))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "bad").exists()


# one value of a snapshot that breaks the hypotheses on the data
BAD_VALUES = {"nan": math.nan, "inf": math.inf, "negative": -0.5}
# a u1 of zero mass: the paper takes positive data
ZERO_U1 = {"zero_u1": 0.0, "negative_zero_u1": -0.0}


def _bad_data(tmp_path, kind):
    """A config whose initial data cannot be made: a corrupt snapshot file, a
    snapshot of another grid, a snapshot with one value that is not finite
    or is negative, a snapshot whose u1 is zero, one header constant out of
    range, or kernel data the box truncates."""
    if kind == "truncated":
        return BASE.replace("alpha1 = 2.0", "alpha1 = 1.5").replace("alpha2 = 2.0", "alpha2 = 1.5") \
            .replace("grid_n = 512", "grid_n = 8").replace("half_length = 30.0", "half_length = 200")
    path = tmp_path / "phi.bin"
    if kind == "corrupt":
        path.write_bytes(b"garbage")
    elif kind == "other_grid":
        zeros = np.zeros(256)
        solver.write_snapshot(path, solver.FieldPair(zeros, zeros, 0.0),
                              SpectralGrid(1, 256, 30.0), parse_config_text(BASE).params)
    else:
        cfg = parse_config_text(BASE)
        pair = solver.make_initial_data(cfg.run.init, cfg.run.grid, cfg.params)
        if kind in BAD_VALUES:
            pair.u2[100] = BAD_VALUES[kind]
        if kind in ZERO_U1:
            pair.u1[:] = ZERO_U1[kind]
        solver.write_snapshot(path, pair, cfg.run.grid, cfg.params)
        if kind in BAD_HEADER_VALUES:
            raw = bytearray(path.read_bytes())
            struct.pack_into("<d", raw, *BAD_HEADER_VALUES[kind])
            path.write_bytes(bytes(raw))
    return BASE.replace("init = stable_kernel", f"init = from_file\ninit_path = {path}")


@pytest.mark.parametrize("kind", ["corrupt", "other_grid", "truncated", *BAD_VALUES, *ZERO_U1,
                                  *BAD_HEADER_VALUES])
def test_solve_bad_initial_data_fails_cleanly(tmp_path, capsys, kind):
    cfg = _write(tmp_path, _bad_data(tmp_path, kind))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "bad").exists()


def _unusable_path(tmp_path, case):
    """The arguments of a command whose input cannot be read or whose output
    directory cannot be made; ``file`` is a regular file."""
    cfg = _write(tmp_path, BASE)
    file = tmp_path / "file"
    file.write_text("kept\n")
    out = str(tmp_path / "out")
    if case == "config_is_a_directory":
        return ["solve", "--config", str(tmp_path), "--out", out]
    if case == "init_path_is_a_directory":
        text = BASE.replace("init = stable_kernel", f"init = from_file\ninit_path = {tmp_path}")
        return ["solve", "--config", _write(tmp_path, text, "dir.cfg"), "--out", out]
    if case == "solve_out_below_a_file":
        return ["solve", "--config", cfg, "--out", str(file / "out")]
    if case == "regime_out_is_a_file":
        return ["regime", "--config", cfg, "--out", str(file)]
    (tmp_path / "ff.cfg").write_bytes(BASE.encode() + b"# \xff\n")
    return ["solve", "--config", str(tmp_path / "ff.cfg"), "--out", out]


@pytest.mark.parametrize("case", ["config_is_a_directory", "init_path_is_a_directory",
                                  "solve_out_below_a_file", "regime_out_is_a_file",
                                  "config_not_utf8"])
def test_unusable_paths_fail_cleanly(tmp_path, capsys, case):
    argv = _unusable_path(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before     # no run directory, no file
    assert (tmp_path / "file").read_text() == "kept\n"
    if case == "config_not_utf8":
        assert err.startswith(f"error: {tmp_path / 'ff.cfg'}: not UTF-8 text ")


def test_solve_unresolved_kernel_data_names_the_spacing(tmp_path, capsys):
    # 2-D kernel data are made on the even view; h = 2 leaves the symbol at
    # the Nyquist radius at e^(-(pi/2)^2) = 8.5e-2
    text = BASE.replace("dim = 1", "dim = 2").replace("grid_n = 512", "grid_n = 8") \
        .replace("half_length = 30.0", "half_length = 8.0")
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid spacing h = 2 does not resolve alpha=2.0, t=1.0: the "
                          "symbol at the Nyquist radius pi/h is e^(-t (pi/h)^alpha) = 8.480e-02 ")
    assert err.count("\n") == 1
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("swaps, message", [
    # a width-0.001 bump on h = 0.234 holds only its centre sample
    ({"grid_n = 512": "grid_n = 256", "horizon = 4.0": "horizon = 2.0", "steps = 40": "steps = 20",
      "init = stable_kernel": "init = gaussian\nwidth = 0.001"},
     "gaussian data of width 0.001 have grid mass 0.935021, not epsilon = 0.01, at spacing "
     "h = 0.234375 and half-length L = 30"),
    # a width-1 bump on L = 1 loses a third of its mass at the box edge
    ({"grid_n = 512": "grid_n = 8", "half_length = 30.0": "half_length = 1.0",
      "init = stable_kernel": "init = gaussian\nwidth = 1"},
     "gaussian data of width 1 have grid mass 0.00680164, not epsilon = 0.01, at spacing "
     "h = 0.25 and half-length L = 1")], ids=["narrow_for_the_spacing", "wide_for_the_box"])
def test_solve_gaussian_data_the_grid_cannot_hold_fail_cleanly(tmp_path, capsys, swaps, message):
    text = BASE
    for old, new in swaps.items():
        text = text.replace(old, new)
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "bad").exists()


def test_manifest_digests_are_the_artifacts_bytes(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    run = tmp_path / "o" / "t"
    recorded = dict(line.removeprefix("# sha256 ").split(" = ")
                    for line in (run / "manifest.txt").read_text().splitlines()
                    if line.startswith("# sha256 "))
    assert sorted(recorded) == sorted(p.name for p in run.iterdir() if p.name != "manifest.txt")
    for name, digest in recorded.items():
        assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name


def _set(text, line):
    """``text`` with the key of ``line`` set by ``line``."""
    key = line.partition("=")[0].strip()
    return "".join(f"{kept}\n" for kept in text.splitlines()
                   if kept.partition("=")[0].strip() != key) + line + "\n"


# a number that is no number, is not finite or is out of range is a
# configuration error, never a traceback, a "divergence" or a silent clamp
BAD_NUMBERS = {"delta=abc": ("delta = abc", []), "delta=nan": ("delta = nan", []),
               "--delta nan": ("", ["--delta", "nan"]), "horizon=inf": ("horizon = inf", []),
               # a retired key accepts its one value only
               "grading=nan": ("grading = nan", []),
               "coupling_scale=nan": ("coupling_scale = nan", []),
               "coupling_scale=-1": ("coupling_scale = -1", []),
               "half_length=inf": ("half_length = inf", [])}


@pytest.mark.parametrize("command", ["regime", "solve"])
@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_numbers_are_configuration_errors(tmp_path, capsys, command, case):
    line, flags = BAD_NUMBERS[case]
    cfg = _write(tmp_path, _set(BASE, line) if line else BASE)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "bad"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "bad").exists()


# settings that parse but fail a RunConfig or TimeMesh check, or set the
# retired grading away from the value that sigma = 0 derives, 1
BAD_SOLVER_SETTINGS = ["snapshot_stride = 0", "steps = 0", "grading = 0.5"]


@pytest.mark.parametrize("setting", BAD_SOLVER_SETTINGS)
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, setting):
    cfg = _write(tmp_path, _set(BASE, setting))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert setting.partition(" ")[0] in err
    assert not (tmp_path / "bad").exists()


def test_solve_records_skipped_linf_check(tmp_path):
    # alpha = 1/2, beta = 2 is GlobalSmallData: decay is checked, the sup-norm
    # bound (bounded regime only) is skipped with its reason, and so is the
    # envelope, whose Theorem 3 hypothesis holds but which needs kernel data
    text = BASE.replace("alpha1 = 2.0", "alpha1 = 0.5").replace("alpha2 = 2.0", "alpha2 = 0.5")
    text = text.replace("beta1 = 4.0", "beta1 = 2.0").replace("beta2 = 4.0", "beta2 = 2.0")
    text = text.replace("init = stable_kernel", "init = gaussian").replace("delta = 0.3", "delta =")
    cfg = _write(tmp_path, text)
    out = tmp_path / "gsd"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "t" / "verification.txt").read_text().splitlines()
    assert "regime = GlobalSmallData" in lines
    assert "linf_skipped = sup-norm bound requires the bounded regime, got GlobalSmallData" in lines
    assert not any(line.startswith("linf_verdict") for line in lines)
    assert "decay_verdict_u1 = true" in lines
    assert "theorem3_applicable = true" in lines
    assert "envelope_skipped = self-similar envelope needs stable_kernel initial data, " \
        "got gaussian" in lines
    assert not any(line.startswith("env_") for line in lines)


def test_solve_records_skipped_checks_of_a_no_guarantee_run(tmp_path):
    # alpha = 1/2, beta = (3/2, 2), rho = (2, 1), sigma = (1, 1/2) is
    # NoGuarantee, yet Delta = 0.45 lies inside its window: norm orders exist
    # but no check applies
    text = BASE.replace("alpha1 = 2.0", "alpha1 = 0.5").replace("alpha2 = 2.0", "alpha2 = 0.5")
    text = text.replace("beta1 = 4.0", "beta1 = 1.5").replace("beta2 = 4.0", "beta2 = 2.0")
    text = text.replace("rho1 = 1.0", "rho1 = 2.0").replace("sigma1 = 0.0", "sigma1 = 1.0")
    text = text.replace("sigma2 = 0.0", "sigma2 = 0.5").replace("delta = 0.3", "delta = 0.45")
    out = tmp_path / "ng"
    assert main(["solve", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "t" / "verification.txt").read_text().splitlines()
    assert "regime = NoGuarantee" in lines and "delta = 0.45000000000000001" in lines
    assert [line for line in lines if "_skipped" in line] == [
        "decay_skipped = decay law needs a global-existence regime, got NoGuarantee",
        "linf_skipped = sup-norm bound requires the bounded regime, got NoGuarantee",
        "envelope_skipped = self-similar envelope hypothesis does not hold for these parameters"]
    assert (out / "t" / "manifest.txt").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1] == "t,NoGuarantee,,,,,,,"     # blank values and verdict


def test_solve_seed_id_overrides_run_id(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "s"
    assert main(["solve", "--config", cfg, "--out", str(out), "--seed-id", "other"]) == 0
    assert (out / "other" / "norms.csv").exists()


def test_solve_determinism_and_manifest_rerun(tmp_path):
    cfg = _write(tmp_path, BASE)
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ["norms.csv", "manifest.txt"] + [p.name for p in (out1 / "t").glob("snap_*.bin")]:
        assert (out1 / "t" / name).read_bytes() == (out2 / "t" / name).read_bytes()
    # the manifest is itself a runnable config
    assert main(["solve", "--config", str(out1 / "t" / "manifest.txt"), "--out", str(out3)]) == 0
    assert (out1 / "t" / "norms.csv").read_bytes() == (out3 / "t" / "norms.csv").read_bytes()


def test_delta_flag_is_recorded_and_reruns(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert main(["regime", "--config", cfg, "--delta", "0.32"]) == 0
    assert "delta = 0.32000000000000001" in capsys.readouterr().out.splitlines()
    first, again = tmp_path / "d1", tmp_path / "d2"
    assert main(["solve", "--config", cfg, "--out", str(first), "--delta", "0.32"]) == 0
    manifest = first / "t" / "manifest.txt"
    assert "delta = 0.32000000000000001" in manifest.read_text().splitlines()
    # the manifest reproduces the run, Delta included
    assert main(["solve", "--config", str(manifest), "--out", str(again)]) == 0
    for name in ("norms.csv", "verification.txt", "manifest.txt"):
        assert (first / "t" / name).read_bytes() == (again / "t" / name).read_bytes(), name
    assert "delta = 0.32000000000000001" in (first / "t" / "verification.txt").read_text()


# a small asymmetric 2-D alpha = 1.5 solve: the two-component path, with the
# decay and sup-norm checks
ASYM_2D = """
alpha1 = 1.5
alpha2 = 1.5
beta1 = 3.0
beta2 = 3.0
rho1 = 1.0
rho2 = 0.7
sigma1 = 0.0
sigma2 = 0.0
dim = 2
grid_n = 64
half_length = 20.0
horizon = 2.0
steps = 20
snapshot_stride = 5
init = stable_kernel
epsilon = 0.01
run_id = asym
"""

# sha256 of artifacts that a refactor must leave byte-identical; the manifest
# holds the snapshots' sha256.  Taken with numpy 2.4.6 on x86-64 Linux: the
# FFT and libm of another platform may move the last bits.  Pinned on the
# even path (the x >= 0 corner, DCT-I transforms); its norms and snapshots are
# within 1.9e-15 of the peak of those of the full-grid path.  The manifest was
# re-pinned when `grading` left the keys: it lost that line and its config hash.
# All three were re-pinned when the initial data and the envelope kernel were made
# on the even view and each step started from the carried spectrum of the last:
# norms within 1.5e-15 relative of the earlier bytes.
ASYM_2D_GOLDEN = {
    "norms.csv": "a8760e4c579ec5acec4aa5a4669b3a6e7584e6ab96e9777a23f0c5d4f8971cef",
    "verification.txt": "9d7aba3e49d6f7c5bd3c2b46521ebe6bd4444c160a9c953c8a1b125faea737d8",
    "manifest.txt": "85c7067d2babb694c62c773aa46970f78af5affc82962eec265771a4618cf961",
}
# Re-pinned when lp_norm took one node set per radius octave: one line moved,
# alpha = 1.5, d = 3 l2_slope_rel_err, from 5.551115e-16 to 2.220446e-16 (a
# slope change of 3.3e-16, round-off), with every lp_norm within 1.3e-15 relative.
# Re-pinned both when density_profile took the far-field series: the quadrature
# of the radii below the switch is sized for the largest of them, so p(0.6, 0)
# moved by round-off and with it the alpha = 1.5 domination_min_margin, the
# margin at r = 0 where the identity is exact: d = 2 from 5.551115e-17 to
# 2.081668e-17 (both outputs) and d = 3 from 3.469447e-18 to 1.214306e-17.
# Re-pinned both when the quadrature summed its nodes below rho rmax = 1/2 as
# Taylor moments and density_profile took r = 0 from the closed form; only
# alpha = 1.5 round-off residuals moved, every lp_norm within 2.2e-16 relative:
# scaling_rel_err d = 1 1.524486e-14 -> 2.008600e-14, d = 2 3.121561e-14 ->
# 2.920170e-14, d = 3 2.951344e-14 -> 3.158455e-14; domination_min_margin (now
# the closed-form p(t, 0) alone) d = 1 -1.665335e-16 -> 2.775558e-17, d = 2
# 2.081668e-17 -> -6.938894e-18, d = 3 1.214306e-17 -> 1.734723e-18; and
# l2_slope_rel_err d = 3 2.220446e-16 -> 5.551115e-16.  d = 3 is in the first only.
# The first was re-pinned when TruncationError named its cause, the spacing: only
# the alpha = 1, d = 3 [FAIL] line changed, every number in it kept.
VERIFY_KERNEL_123_GOLDEN = "b2751d909fa704b1b0f711c06c151d412f005174abe313c318d5f08f05f92dbc"
VERIFY_KERNEL_DEFAULT_GOLDEN = "28bbae6b7bcaedc2e9b73e4f7eb6d4a84aa15279a9011e8f7a24ac2afa2d3b7a"


# a small symmetric 2-D alpha = 1.5 solve at epsilon = 1: frac2d's path, an
# aliased pair on the even view whose steps 2-10 start from the carried spectrum
SYM_2D = """
alpha1 = 1.5
alpha2 = 1.5
beta1 = 3.0
beta2 = 3.0
rho1 = 1.0
rho2 = 1.0
sigma1 = 0.0
sigma2 = 0.0
dim = 2
grid_n = 64
half_length = 20.0
horizon = 2.0
steps = 10
snapshot_stride = 2
init = stable_kernel
epsilon = 1.0
run_id = sym
"""

# taken as ASYM_2D_GOLDEN was, before a field pair carried its own spectra
SYM_2D_GOLDEN = {
    "norms.csv": "ed096099e5e7c68c2c795e204b1c9835539164c3b758b70a705b3a16fbb20145",
    "verification.txt": "b48cecd3fb3c707c0ba3ae8996092208e4e3d741af1f7de90fd41d34f197185a",
    "manifest.txt": "ef0edfacfad3bd08bfbfcf32d877ccb4eb87ca2a83ffeb87341017dd2f404d20",
}


def test_asymmetric_2d_artifact_bytes_are_frozen(tmp_path):
    # and those of the symmetric twin, SYM_2D
    for text, run_id, golden in ((ASYM_2D, "asym", ASYM_2D_GOLDEN), (SYM_2D, "sym", SYM_2D_GOLDEN)):
        cfg = _write(tmp_path, text, run_id + ".cfg")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        for name, digest in golden.items():
            data = (tmp_path / "o" / run_id / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (run_id, name)


def test_log_level_adds_log_lines_and_no_artifact_byte(tmp_path, caplog):
    cfg = _write(tmp_path, BASE)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
    assert not [r for r in caplog.records if r.name.startswith("fracsys")]
    try:
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "info"),
                     "--log-level", "INFO"]) == 0
    finally:
        logging.getLogger("fracsys").setLevel(logging.NOTSET)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
        == [("fracsys.solver", "INFO", "full grid: 1-D run")]
    for name in os.listdir(tmp_path / "quiet" / "t"):
        assert (tmp_path / "quiet" / "t" / name).read_bytes() \
            == (tmp_path / "info" / "t" / name).read_bytes(), name


def test_verify_kernel_output_bytes_are_frozen(capsys):
    assert main(["verify-kernel", "--dims", "1,2,3"]) == 1     # alpha = 1, d = 3 fails
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_KERNEL_123_GOLDEN, out
    assert main(["verify-kernel"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_KERNEL_DEFAULT_GOLDEN, out


def test_symmetric_solve_writes_the_general_path_artifacts(tmp_path, monkeypatch):
    cfg = parse_config(_write(tmp_path, BASE))
    code, _, aliased = cli.run_experiment(cfg, tmp_path / "alias")
    assert code == 0
    assert all(snap.u1 is snap.u2 for snap in aliased.snapshots)
    assert aliased.diagnostics["clamped_values"] > 0
    monkeypatch.setattr(solver._Plan, "symmetric", False)
    code, _, general = cli.run_experiment(cfg, tmp_path / "general")
    assert code == 0
    assert all(snap.u1 is not snap.u2 for snap in general.snapshots)
    names = sorted(p.name for p in (tmp_path / "alias" / "t").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "general" / "t").iterdir())
    assert "verification.txt" in names and len(names) == 9
    for name in names:
        assert (tmp_path / "alias" / "t" / name).read_bytes() \
            == (tmp_path / "general" / "t" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# verify-kernel command

def test_verify_kernel_quick(capsys):
    assert main(["verify-kernel", "--alpha", "2", "--dims", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_kernel_reports_failed_case_and_continues(capsys):
    # the d = 3 grid's spacing h = 0.46875 does not resolve the Cauchy kernel at
    # t = 0.5 (its symbol at pi/h is still 3.5e-2): that case fails, d = 3 at
    # alpha = 2 still runs
    assert main(["verify-kernel", "--alpha", "1,2", "--dims", "3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] alpha=1 d=3 TruncationError: " in out
    assert out.count("[PASS] alpha=2 d=3 ") == 7
    assert out.endswith("# 9/10 checks passed\n")


def test_verify_kernel_fails_a_case_over_the_node_cap_without_building_it(capsys):
    # alpha = 0.2 would need 3e8 quadrature nodes (about 10 GB) for its first check
    assert main(["verify-kernel", "--alpha", "0.2", "--dims", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("[FAIL] alpha=0.2 d=1 NodeCountError: ")
    assert lines[1] == "# 0/1 checks passed"


@pytest.mark.parametrize("alpha, dims", [("2", "4"), ("1.5", "4"), ("3", "1"), ("x", "1"),
                                         ("2", "0"), ("nan", "1"), ("2", "1.5"),
                                         # nothing to check is no pass
                                         (",", "1"), ("2", "")])
def test_verify_kernel_rejects_bad_arguments_before_any_check(capsys, alpha, dims):
    assert main(["verify-kernel", "--alpha", alpha, "--dims", dims]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: verify-kernel: ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# sweep command

_BETA2_NO_DELTA = BASE.replace("beta1 = 4.0", "beta1 = 2.0").replace("beta2 = 4.0", "beta2 = 2.0") \
    .replace("delta = 0.3", "delta =")

# sha256 of sweep.csv for one parameter of each kind: a pair, a single
# constant, the dimension (classified past the grids' cap of 3), the data
# amplitude and Delta (one value outside the window)
SWEEP_GOLDEN = {
    "beta": (BASE, "2.0,3.5", "926cee03191c7306f38e40caab1e0e4b4861fdd3d761137c71f9c2b5aac19fd9"),
    "rho2": (BASE, "1.0,0.7", "8d991d39e92c406857c743a5931b8ed6b8fcd174866afc8248a00972dce42f87"),
    "dim": (_BETA2_NO_DELTA, "1,2,3,4,5,6",
            "09557821e0790d56cd55d7bef015121b618ff58395889ea07c1c32810a3c35e4"),
    "epsilon": (BASE, "0.005,0.02", "2456e56c7a9942663ff8a81697e7ca8851c5e3585e988247307ed18600798c22"),
    "delta": (BASE, "0.3,0.35,0.9", "f9e8f1822d9e28ed1e0bd488f25fce7dff21f4f84c866f9ecef642014e1a5ef4"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_csv_bytes_are_frozen(tmp_path, name):
    text, values, digest = SWEEP_GOLDEN[name]
    cfg = _write(tmp_path, text + f"sweep_param = {name}\nsweep_values = {values}\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    data = (tmp_path / "o" / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest, data.decode()


def test_sweep_point_outside_delta_keeps_its_classification(tmp_path):
    # beta = 2 has an empty window, so the config's Delta = 0.3 lies outside it
    cfg = _write(tmp_path, BASE + "sweep_param = beta\nsweep_values = 2.0,3.5\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    # the error text, the last column, holds a comma
    row = dict(zip(header, rows[1].split(",", len(header) - 1)))
    assert (row["window_lo"], row["window_hi"]) == ("0.5", "0.25")
    assert (row["regime"], row["theorem3"]) == ("NoGuarantee", "false")
    assert row["delta"] == ""
    assert row["error"] == "DeltaOutsideWindow: delta=0.3 outside the admissible window (0.5, 0.25)"


def test_sweep_dim_flip(tmp_path):
    text = BASE.replace("beta1 = 4.0", "beta1 = 2.0").replace("beta2 = 4.0", "beta2 = 2.0")
    text = text.replace("delta = 0.3", "delta =")
    text += "sweep_param = dim\nsweep_values = 1,2,3,4,5,6\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    regimes = [dict(zip(header, r.split(",")))["regime"] for r in rows[1:]]
    assert regimes == ["NoGuarantee", "NoGuarantee"] + ["GlobalSmallData"] * 4


@pytest.mark.parametrize("dynamics", [False, True])
def test_sweep_rejects_a_fractional_dim_first(tmp_path, capsys, dynamics):
    # a fractional dim was once truncated: 1.5 and 2.9 ran at dim 1 and 2
    cfg = _write(tmp_path, _BETA2_NO_DELTA + "sweep_param = dim\nsweep_values = 2,1.5,2.9\n")
    out = tmp_path / "swd"
    assert main(["sweep", "--config", cfg, "--out", str(out)]
                + ["--with-dynamics"] * dynamics) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "'dim' needs integer sweep_values, got 1.5" in err[0]
    assert not out.exists()


def test_sweep_singleton_matches_regime(tmp_path, capsys):
    text = BASE + "sweep_param = beta\nsweep_values = 4.0\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "sw1"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    row = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert row["regime"] == "GlobalSmallDataBounded"
    assert float(row["window_lo"]) == 0.25
    assert float(row["window_hi"]) == 0.375


def test_sweep_is_resumable(tmp_path):
    text = BASE.replace("delta = 0.3", "delta =")
    text += "sweep_param = beta\nsweep_values = 2.0,3.0,4.0\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "sw2"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "points" / "point_0001.csv").read_text()
    # drop the merged file and one point; rerun only recomputes the dropped one
    (out / "sweep.csv").unlink()
    (out / "points" / "point_0002.csv").unlink()
    (out / "points" / "point_0001.csv").write_text(first.replace("NoGuarantee", "Sentinel"))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    merged = (out / "sweep.csv").read_text()
    assert "Sentinel" in merged            # kept, not recomputed
    assert merged.count("\n") == 4


_REAL_SWEEP_POINT = cli.sweep_point


def _sweep_point_crashing_at_one(task):
    # module level, so that a process pool can send it to its workers
    if task[0] == 1:
        raise RuntimeError("point 1 crashed")
    return _REAL_SWEEP_POINT(task)


@pytest.mark.parametrize("dynamics", [False, True])
def test_sweep_keeps_finished_points_when_a_point_raises(tmp_path, monkeypatch, dynamics):
    text = BASE.replace("horizon = 4.0", "horizon = 2.0").replace("steps = 40", "steps = 20")
    text += "sweep_param = epsilon\nsweep_values = 0.005,0.01,0.02\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "swc"
    argv = ["sweep", "--config", cfg, "--out", str(out)] + (["--with-dynamics"] if dynamics else [])
    points = out / "points"
    monkeypatch.setattr(cli, "sweep_point", _sweep_point_crashing_at_one)
    with pytest.raises(RuntimeError, match="point 1 crashed"):
        main(argv)
    # sequentially the sweep stops at point 1; a pool still finishes point 2
    kept = {"point_0000.csv", "point_0002.csv"} if dynamics else {"point_0000.csv"}
    assert {p.name for p in points.iterdir()} == kept | {cli.SWEEP_KEY}
    assert not (out / "sweep.csv").exists()
    # a torn write leaves only a tmp file, which does not count as finished
    (points / "point_0001.csv.tmp").write_text("torn")
    first = (points / "point_0000.csv").read_text()
    (points / "point_0000.csv").write_text(first.replace("GlobalSmallDataBounded", "Sentinel"))
    monkeypatch.setattr(cli, "sweep_point", _REAL_SWEEP_POINT)
    assert main(argv) == 0
    assert {p.name for p in points.iterdir()} == \
        {f"point_{i:04d}.csv" for i in range(3)} | {cli.SWEEP_KEY}
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4 and "Sentinel" in rows[1]    # point 0 kept, not recomputed
    header = rows[0].split(",")
    assert [float(dict(zip(header, r.split(",")))["sweep_value"]) for r in rows[1:]] == \
        [0.005, 0.01, 0.02]


def test_sweep_with_dynamics_row(tmp_path):
    text = BASE.replace("horizon = 4.0", "horizon = 2.0").replace("steps = 40", "steps = 20")
    text += "sweep_param = epsilon\nsweep_values = 0.005,0.01\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "swd"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--with-dynamics"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = dict(zip(header, rows[1].split(",")))
    assert row["status"] == "completed"
    assert float(row["sup_scaled_u1"]) > 0.0
    assert (out / "t-p0000" / "norms.csv").exists()


def test_sweep_with_dynamics_rejects_bad_solver_settings_first(tmp_path, capsys):
    for setting in BAD_SOLVER_SETTINGS:
        text = _set(BASE, setting) + "sweep_param = epsilon\nsweep_values = 0.005,0.01\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "swn"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--with-dynamics"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert setting.partition(" ")[0] in err[0]
        assert not out.exists()


# the retired thread variable is ignored: workers follow the CPU affinity
@pytest.mark.parametrize("threads", ["abc", "0", "-3"])
def test_sweep_ignores_the_thread_variable(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("FRACSYS_THREADS", threads)
    text = BASE.replace("horizon = 4.0", "horizon = 2.0").replace("steps = 40", "steps = 20")
    cfg = _write(tmp_path, text + "sweep_param = epsilon\nsweep_values = 0.005,0.01\n")
    out = tmp_path / "swt"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--with-dynamics"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    status = cli.SWEEP_COLUMNS.index("status")
    assert [row.split(",")[status] for row in rows[1:]] == ["completed", "completed"]
    for idx in (0, 1):
        assert (out / f"t-p{idx:04d}" / "manifest.txt").exists()


def test_worker_count_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("FRACSYS_THREADS", raising=False)
    assert cli._worker_count() == len(os.sched_getaffinity(0))
    for threads in ("abc", "0", " 2 "):
        monkeypatch.setenv("FRACSYS_THREADS", threads)
        assert cli._worker_count() == len(os.sched_getaffinity(0))


def test_sweep_resume_under_another_config_fails_and_keeps_points(tmp_path, capsys):
    text = BASE + "sweep_param = beta\nsweep_values = 2.0,3.0\n"
    out = tmp_path / "swk"
    argv = ["sweep", "--config", _write(tmp_path, text), "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in (out / "points").iterdir()}
    assert set(before) == {"point_0000.csv", "point_0001.csv", cli.SWEEP_KEY}
    (out / "points" / "point_0001.csv").unlink()
    del before["point_0001.csv"]
    capsys.readouterr()
    changed = _write(tmp_path, text.replace("epsilon = 0.01", "epsilon = 0.02"), "other.cfg")
    for other in (["sweep", "--config", changed, "--out", str(out)], argv + ["--with-dynamics"]):
        assert main(other) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "another sweep" in err[0]
        assert {p.name: p.read_bytes() for p in (out / "points").iterdir()} == before
    # points written before sweeps carried a key are not trusted either
    (out / "points" / cli.SWEEP_KEY).unlink()
    assert main(argv) == 1
    assert "without a" in capsys.readouterr().err
    assert (out / "points" / "point_0000.csv").read_bytes() == before["point_0000.csv"]


def test_sweep_requires_spec(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert main(["sweep", "--config", cfg]) == 1


def test_missing_config_file():
    assert main(["regime", "--config", "/nonexistent/x.cfg"]) == 1


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # a renamed or deleted target would only print "not measured" in the
    # benchmark and blank its per-layer metrics
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# the solve contract over small configs

@st.composite
def _small_solve(draw):
    """The text of a small solve config: d = 1 to 3, coarse grids, a few
    steps, kernel or Gaussian data, any system the keys accept.  Gaussian
    widths are 1 to 1.5 grid spacings, so most draws hold their mass on
    the grid and run, rather than stop at the grid-mass check."""
    dim = draw(st.sampled_from((1, 2, 3)))
    alpha1 = draw(st.floats(0.3, 2.0))
    grid_n = draw(st.sampled_from((8, 16) if dim == 3 else (8, 16, 32)))
    half_length = draw(st.floats(1.0, 40.0))
    values = {
        "alpha1": alpha1, "alpha2": draw(st.one_of(st.just(alpha1), st.floats(0.3, 2.0))),
        "beta1": draw(st.floats(1.1, 6.0)), "beta2": draw(st.floats(1.1, 6.0)),
        "rho1": draw(st.floats(0.3, 2.0)), "rho2": draw(st.floats(0.3, 2.0)),
        "sigma1": draw(st.floats(-0.8, 2.0)), "sigma2": draw(st.floats(-0.8, 2.0)),
        "dim": dim, "grid_n": grid_n,
        "half_length": half_length, "horizon": draw(st.floats(0.05, 3.0)),
        "steps": draw(st.integers(1, 6)), "snapshot_stride": draw(st.integers(1, 3)),
        "init": draw(st.sampled_from(("stable_kernel", "gaussian"))),
        "epsilon": draw(st.floats(1e-3, 8.0)),
        "width": draw(st.floats(1.0, 1.5)) * 2.0 * half_length / grid_n,
        "run_id": "p",
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(text=_small_solve())
@settings(max_examples=30, deadline=None)
def test_solve_contract_over_small_configs(text):
    # exit codes 0-3 only; exit 1 is one error line and no run directory; a
    # finished run reruns from its manifest to the same bytes, so no state
    # carries over between steps or runs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "exp.cfg").write_text(text)
        code, err = _main_captured(["solve", "--config", str(tmp / "exp.cfg"), "--out", str(tmp / "a")])
        assert code in (0, 1, 2, 3), err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not (tmp / "a").exists()
            return
        if code != 0:
            return
        run = tmp / "a" / "p"
        again, err = _main_captured(["solve", "--config", str(run / "manifest.txt"),
                                     "--out", str(tmp / "b")])
        assert again == 0, err
        names = sorted(p.name for p in run.iterdir())
        assert names == sorted(p.name for p in (tmp / "b" / "p").iterdir())
        for name in names:
            assert (run / name).read_bytes() == (tmp / "b" / "p" / name).read_bytes(), name
