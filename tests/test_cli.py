import json
import os
import pathlib
import subprocess
import sys

import pytest

from sixnodal._numeric import check_tolerance
from sixnodal.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(args, env=None):
    proc = subprocess.run([sys.executable, "-m", "sixnodal.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_usage_error_exit_2():
    code, _, _ = run_cli(["bogus-subcommand"])
    assert code == 2


def test_orbit_json_matches_tables():
    code, out, _ = run_cli(["lattice", "orbit", "--kind", "rho",
                            "--count", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["data"]["classes"] == [[3, -2], [7, -4], [29, -16]]
    assert data["data"]["g_pairings"] == [6, 18, 78]


def test_deg_fano_json():
    code, out, _ = run_cli(["schubert", "deg-fano", "--ambient", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["data"]["integral"] == 45
    code, out, _ = run_cli(["schubert", "deg-fano", "--ambient", "4", "--json"])
    assert json.loads(out)["data"]["integral"] == 27


def test_represent_subcommand():
    code, out, _ = run_cli(["lattice", "represent", "--n", "-10", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["data"]["status"] == "witness"
    assert data["data"]["square"] == -10


def test_represent_certifies_none_that_passes_the_congruences():
    # 12 = 2*6 passes every congruence and inert-prime certificate; the
    # search up to Nagell's bound answers none, and the run passes
    code, out, _ = run_cli(["lattice", "represent", "--n", "12", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["data"]["status"] == "none"
    assert "no x <= 1 " in data["data"]["certificate"]
    assert data["checks"] == [{"name": "certificate of non-representation",
                               "pass": True}]


def test_chamber_subcommand():
    code, out, _ = run_cli(["lattice", "chamber", "--x", "12", "--y", "-5",
                            "--json"])
    data = json.loads(out)
    assert data["data"]["chamber"] == [0]


def test_transfer_failure_exit_1():
    code, _, err = run_cli(["lattice", "transfer", "--gram", "[[4,3],[3,7]]"])
    assert code == 1


def test_transfer_failure_json_error():
    code, out, err = run_cli(["lattice", "transfer", "--gram", "[[4,3],[3,7]]",
                              "--json"])
    assert code == 1
    data = json.loads(out)
    assert set(data) == {"command", "seed", "precision", "error"}
    assert data["command"] == "lattice transfer"
    assert data["seed"] == 1
    assert "h^2" in data["error"]
    assert "error:" in err


def test_precision_from_environment():
    # SIXNODAL_PRECISION is read when a command runs, not at import: a value
    # that is not an integer is reported like any other error, and a valid
    # one is the default that --precision overrides
    env = {k: v for k, v in os.environ.items() if k != "SIXNODAL_PRECISION"}
    code, out, err = run_cli(["reproduce", "--all", "--json"],
                             env={**env, "SIXNODAL_PRECISION": "abc"})
    assert code == 1
    data = json.loads(out)
    assert set(data) == {"command", "seed", "precision", "error"}
    assert data["command"] == "reproduce" and data["precision"] is None
    assert "SIXNODAL_PRECISION" in data["error"]
    assert "Traceback" not in err and "error:" in err
    args = ["lattice", "orbit", "--json"]
    for extra, want in (([], 128), (["--precision", "96"], 96)):
        code, out, _ = run_cli(args + extra, env={**env, "SIXNODAL_PRECISION": "128"})
        assert code == 0 and json.loads(out)["precision"] == want
    code, out, _ = run_cli(args, env=env)
    assert code == 0 and json.loads(out)["precision"] == 256


def test_svg_emission(tmp_path):
    out_path = tmp_path / "cones.svg"
    code, out, _ = run_cli(["lattice", "svg", "--range", "2",
                            "--out", str(out_path)])
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<line") == 7       # five rays plus two isotropic edges
    # four labeled chambers between the outermost drawn rays
    for label in ("C-2", "C-1", "C0", "C1"):
        assert f">{label}<" in svg


def test_svg_figure_one_configuration(tmp_path):
    out_path = tmp_path / "fig1.svg"
    code, _, _ = run_cli(["lattice", "svg", "--range", "1",
                          "--out", str(out_path)])
    assert code == 0
    svg = out_path.read_text()
    # two chambers: the nef cones of the two basic models
    assert ">C0<" in svg and ">C-1<" in svg and ">C1<" not in svg


def test_instance_roundtrip_and_checks(tmp_path):
    inst_path = tmp_path / "inst.json"
    code, _, _ = run_cli(["instance", "new", "--seed", "2",
                          "--out", str(inst_path)])
    assert code == 0
    code, out, _ = run_cli(["instance", "check", str(inst_path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])



@pytest.fixture(scope="module")
def inst1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("instance") / "inst1.json"
    code, _, _ = run_cli(["instance", "new", "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


@pytest.mark.parametrize("prec", [64, 256])
def test_instance_lines_split(inst1_path, prec):
    code, out, _ = run_cli(["instance", "lines", "--instance", str(inst1_path),
                            "--json", "--precision", str(prec)])
    assert code == 0
    data = json.loads(out)["data"]
    assert data["tags"] == {"P": 1, "Pdual": 1, "Scomponent": 4}
    assert data["residual_max"] <= check_tolerance(prec, 1e-40)


def test_fourfold_extend(inst1_path):
    code, out, _ = run_cli(["fourfold", "extend", "--instance", str(inst1_path),
                            "--json"])
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_fourfold_iota_passes_at_every_precision(inst1_path, prec):
    # the plane-factoring bound scales with the precision like the
    # involution check: a fixed 1e-30 failed at 64 bits (residual 3.2e-28)
    code, out, _ = run_cli(["fourfold", "iota", "--instance", str(inst1_path),
                            "--check-involution", "--check-scroll", "2,3,-1",
                            "--json", "--precision", str(prec)])
    data = json.loads(out)
    assert code == 0
    assert [c["name"] for c in data["checks"] if c["pass"]] == [
        "plane restriction factors", "iota is an involution",
        "scroll incidence invariant"]
    assert data["data"]["factor_residual"] < check_tolerance(prec, 1e-30)

def test_surf27_counts():
    code, out, _ = run_cli(["surf27", "enumerate", "--json"])
    data = json.loads(out)
    assert data["data"]["line_classes"] == 27
    assert data["data"]["disjoint_sextuples"] == 72
    assert data["data"]["double_sixes"] == 36


def test_segre_identity_both_variants():
    _, out_c, _ = run_cli(["segre", "identity", "--variant", "cyclic", "--json"])
    _, out_p, _ = run_cli(["segre", "identity", "--variant", "printed", "--json"])
    holds_c = json.loads(out_c)["data"]["relation_holds"]
    holds_p = json.loads(out_p)["data"]["relation_holds"]
    assert holds_c != holds_p


def test_main_entry_in_process(tmp_path, capsys):
    # the console entry point works without a subprocess as well
    code = main(["lattice", "orbit", "--kind", "alpha", "--count", "2",
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["data"]["g_pairings"] == [24, 48]


def test_reproduce_seed1_output_is_pinned(capsys):
    # the reproduce JSON is a contract: byte-identical to the committed
    # output on every supported Python version and after every change that
    # claims the same behaviour
    code = main(["reproduce", "--all", "--seed", "1", "--json",
                 "--precision", "256"])
    assert code == 0
    golden = (DATA / "reproduce_seed1.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


@pytest.mark.parametrize("prec", [64, 128, 512])
def test_reproduce_seed1_output_is_pinned_at_precision(capsys, prec):
    # the same contract away from the default precision, where the numeric
    # lines and the fourfold involution run at other working precisions
    code = main(["reproduce", "--all", "--seed", "1", "--json",
                 "--precision", str(prec)])
    assert code == 0
    golden = (DATA / f"reproduce_seed1_p{prec}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_broken_pipe_exits_1_quietly(tmp_path, capsys, monkeypatch):
    # `sixnodal ... --json | head`: the reader is gone, so nothing more is
    # written, no traceback is printed and the exit code is 1
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w", encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["lattice", "orbit", "--kind", "alpha", "--count", "2",
                     "--json"])
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_text(encoding="utf-8") == ""


@pytest.mark.slow
@pytest.mark.parametrize("prec", [64, 96, 128, 192, 256, 512])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reproduce_passes_at_every_precision(seed, prec, capsys):
    # the numeric checks scale their tolerances with the precision, so no
    # verdict may flip between 64 and 512 bits
    code = main(["reproduce", "--all", "--seed", str(seed), "--json",
                 "--precision", str(prec)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["name"] for c in data["checks"] if not c["pass"]] == []
