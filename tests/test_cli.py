import os
import subprocess
import sys

import pytest

import deltaplus
from deltaplus.cli import main


@pytest.fixture()
def eps1(tmp_path):
    path = tmp_path / "eps1.ddf"
    path.write_text("DDF v1\njump 1 1\n")
    return str(path)


@pytest.fixture()
def two_step(tmp_path):
    path = tmp_path / "two_step.ddf"
    path.write_text("DDF v1\njump 1 1/2\njump 2 1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tau_prints_ddf(capsys, eps1):
    code, out, _ = run(capsys, "tau", "--tnorm", "M", "--conorm", "plus", "--f", eps1, "--g", eps1)
    assert code == 0
    assert out == "DDF v1\njump 2 1\n"


def test_tau_at_prints_both_values(capsys, eps1):
    code, out, _ = run(
        capsys, "tau", "--tnorm", "M", "--conorm", "plus", "--f", eps1, "--g", eps1, "--at", "2"
    )
    assert code == 0
    assert out == "regularized 0  raw 0\n"


def test_tau_at_builds_one_grid(capsys, monkeypatch, two_step):
    # The package exports the function tau under the submodule's name.
    tau_module = sys.modules["deltaplus.tau"]
    build_grid = tau_module.build_grid
    grids = []

    def counted(*args):
        grids.append(args)
        return build_grid(*args)

    monkeypatch.setattr(tau_module, "build_grid", counted)
    code, out, _ = run(
        capsys, "tau", "--tnorm", "M", "--conorm", "plus",
        "--f", two_step, "--g", two_step, "--at", "3",
    )
    assert code == 0
    assert out == "regularized 1/2  raw 1/2\n"
    assert len(grids) == 1


def test_tau_emit_points(capsys, eps1, two_step):
    code, out, _ = run(
        capsys,
        "tau", "--tnorm", "M", "--conorm", "plus",
        "--f", eps1, "--g", two_step, "--emit-points",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DDF v1"
    points = [line for line in lines if line.startswith("point ")]
    assert points and all(len(line.split()) == 3 for line in points)


def test_tau_missing_file_names_the_path(capsys, eps1):
    code, _, err = run(capsys, "tau", "--tnorm", "M", "--conorm", "plus", "--f", "/nope.ddf", "--g", eps1)
    assert code == 64
    assert "/nope.ddf" in err


def test_tau_parse_error_names_file_and_line(capsys, tmp_path, eps1):
    bad = tmp_path / "bad.ddf"
    bad.write_text("DDF v1\njump 1 1/2\njump 1 3/4\n")
    code, _, err = run(capsys, "tau", "--tnorm", "M", "--conorm", "plus", "--f", str(bad), "--g", eps1)
    assert code == 64
    assert "bad.ddf" in err and "line 3" in err


def test_tau_non_utf8_file_names_the_path(capsys, tmp_path, eps1):
    bad = tmp_path / "bad.ddf"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "tau", "--tnorm", "M", "--conorm", "plus", "--f", str(bad), "--g", eps1)
    assert code == 64
    assert f"cannot read {bad}: not UTF-8 text" in err


def test_classify_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "--tnorm", "D", "--conorm", "plus")
    assert code == 0 and "verdict Triangle" in out
    assert out.startswith("pair tnorm=D tconorm=plus budget=1000 seed=0")
    code, out, _ = run(capsys, "classify", "--tnorm", "D", "--conorm", "max")
    assert code == 1 and "verdict NotTriangle" in out
    assert "c_left_when_nonarchimedean" in out
    code, out, _ = run(capsys, "classify", "--tnorm", "M", "--conorm", "osum_trunc:2")
    assert code == 1 and "a_LCS" in out


def test_check_passes_with_exit_zero(capsys):
    code, out, _ = run(
        capsys, "check", "--tnorm", "W", "--conorm", "plus",
        "--law", "associativity", "--budget", "40",
    )
    assert code == 0
    assert out.startswith("PASS")


def test_mine_fails_with_exit_two_and_witness(capsys):
    code, out, _ = run(
        capsys, "mine", "--tnorm", "nM_hat", "--conorm", "plus",
        "--budget", "120", "--seed", "42",
    )
    assert code == 3  # inconclusive: no step-function witness exists
    code, out, _ = run(
        capsys, "mine", "--tnorm", "M", "--conorm", "osum_trunc:2",
        "--budget", "5000", "--seed", "42", "--output", "records",
    )
    assert code == 2
    assert out.startswith("report tnorm=M tconorm=osum_trunc:2")
    assert "witness law=closure" in out


def test_mine_finds_the_ramp_witness_at_the_default_budget(capsys):
    code, out, _ = run(capsys, "mine", "--tnorm", "D", "--conorm", "max")
    assert code == 2
    assert out.startswith("FAIL D,max law=closure")
    assert "split u=1 v=1" in out


def test_mine_output_is_deterministic(capsys):
    args = ("mine", "--tnorm", "M", "--conorm", "drastic", "--budget", "300", "--seed", "9",
            "--output", "records")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2) == (2, out1)


def test_usage_errors_exit_64(capsys):
    code, _, err = run(capsys, "check", "--tnorm", "W", "--conorm", "plus", "--law", "nosuchlaw")
    assert code == 64 and "nosuchlaw" in err
    code, _, err = run(capsys, "classify", "--tnorm", "Q", "--conorm", "plus")
    assert code == 64 and "unknown t-norm" in err
    code, _, err = run(capsys, "classify", "--tnorm", "M", "--conorm", "osum_trunc:-1")
    assert code == 64
    for command, budget in (("check", "0"), ("check", "-3"), ("mine", "0")):
        law = ["--law", "closure"] if command == "check" else []
        code, out, err = run(
            capsys, command, "--tnorm", "M", "--conorm", "plus", *law, "--budget", budget
        )
        assert code == 64 and out == "" and "budget must be >= 1" in err
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 64


def test_conorm_parameter_takes_the_rational_grammar():
    # Fraction() would read 1e-400000 as a fraction with a 400001-digit
    # denominator, which the report then cannot finish printing.
    script = (
        "import sys\n"
        "from deltaplus.cli import main\n"
        "sys.exit(main(['classify', '--tnorm', 'M', '--conorm', 'osum_trunc:1e-400000']))\n"
    )
    src = os.path.dirname(os.path.dirname(deltaplus.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
    )
    assert result.returncode == 64 and result.stdout == ""
    assert "'osum_trunc:1e-400000'" in result.stderr


@pytest.mark.parametrize(
    "argv, length",
    [
        (["classify", "--tnorm", "M", "--conorm", "osum_strict:" + "9" * 5000], 5012),
        (["classify", "--tnorm", "M", "--conorm", "q" * 5000], 5000),
        (["classify", "--tnorm", "q" * 5000, "--conorm", "plus"], 5000),
        (["check", "--tnorm", "M", "--conorm", "plus", "--law", "q" * 5000], 5000),
    ],
    ids=["conorm-parameter", "conorm-name", "tnorm-name", "law-name"],
)
def test_over_long_input_is_reported_by_its_length(capsys, argv, length):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert f"<{length} characters>" in err and len(err) < 200


def test_catalog_lists_all_families(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("tnorm ")]) == 6
    assert len([l for l in lines if l.startswith("tconorm ")]) == 6
    assert any("nM_hat" in l and "weakly_left_continuous=no" in l for l in lines)
    assert any(
        "nilpotent_rat" in l
        and "conditionally_strictly_increasing=yes" in l
        and "strictly_increasing=no" in l
        for l in lines
    )


def test_step_functions_never_import_ramps(eps1):
    # Importing the ramps module eagerly costs measurable start-up time, so
    # v1 parsing, v1 serializing and the tau command must not load it.
    script = (
        "import sys, deltaplus\n"
        "from deltaplus.cli import main\n"
        f"f = deltaplus.parse_ddf(open({eps1!r}).read())\n"
        "deltaplus.serialize(f)\n"
        "args = ['tau', '--tnorm', 'M', '--conorm', 'plus']\n"
        f"assert main(args + ['--f', {eps1!r}, '--g', {eps1!r}]) == 0\n"
        "print('deltaplus.ramps' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(deltaplus.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.splitlines()[-1] == "False"


def test_tau_refuses_ramp_files(capsys, tmp_path, eps1):
    ramp = tmp_path / "ramp.ddf"
    ramp.write_text("DDF v2\nramp 0 1 1\n")
    code, out, err = run(capsys, "tau", "--tnorm", "D", "--conorm", "max", "--f", str(ramp), "--g", eps1)
    assert code == 64 and out == ""
    assert "ramp.ddf" in err and "DDF v2" in err and "Traceback" not in err
