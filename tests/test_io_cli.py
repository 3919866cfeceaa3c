"""File formats and the command-line interface."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from geoinv.cli import main
from geoinv.io import (
    fmt,
    parse_cif_lite,
    parse_xyz,
    to_csv,
    write_cif_lite,
    write_xyz,
)
from geoinv.periodic import ppc

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_cif_cubic():
    S = parse_cif_lite((FIXTURES / "cubic.cif").read_text())
    assert S.basis == pytest.approx(np.eye(3), abs=1e-12)
    assert len(S.motif) == 1


def test_parse_cif_hexagonal():
    S = parse_cif_lite((FIXTURES / "hexagonal.cif").read_text())
    assert S.rank == 3
    assert S.cell_volume() == pytest.approx(10 * math.sqrt(3) / 2, abs=1e-9)


def test_cif_round_trip():
    S = parse_cif_lite((FIXTURES / "cubic.cif").read_text())
    T = parse_cif_lite(write_cif_lite(S))
    assert np.abs(T.basis - S.basis).max() < 1e-9
    assert np.abs(T.motif - S.motif).max() < 1e-9


def test_cif_malformed_angle_rejected():
    text = (FIXTURES / "cubic.cif").read_text().replace(
        "_cell_angle_beta 90", "_cell_angle_beta 200"
    )
    with pytest.raises(ValueError):
        parse_cif_lite(text)


def test_cif_non_p1_rejected():
    text = (FIXTURES / "cubic.cif").read_text().replace("'P 1'", "'P -1'")
    with pytest.raises(ValueError):
        parse_cif_lite(text)


def test_cif_occupancy_rejected():
    text = (FIXTURES / "hexagonal.cif").read_text().replace(
        "C1 0.0 0.0 0.0 1.0", "C1 0.0 0.0 0.0 0.5"
    )
    with pytest.raises(ValueError):
        parse_cif_lite(text)


def test_cif_missing_tag_rejected():
    text = "\n".join(
        ln
        for ln in (FIXTURES / "cubic.cif").read_text().splitlines()
        if "_cell_length_b" not in ln
    )
    with pytest.raises(ValueError):
        parse_cif_lite(text)


def test_cif_uncertainty_suffix():
    text = (FIXTURES / "cubic.cif").read_text().replace(
        "_cell_length_a 1.0", "_cell_length_a 1.0(2)"
    )
    S = parse_cif_lite(text)
    assert S.basis[0, 0] == pytest.approx(1.0)


def test_xyz_round_trip():
    text = (FIXTURES / "trapezium.xyz").read_text()
    C = parse_xyz(text)
    assert C.points.shape == (4, 2)
    D = parse_xyz(write_xyz(C, "again"))
    assert np.abs(D.points - C.points).max() < 1e-12


def test_xyz_header_mismatch_rejected():
    with pytest.raises(ValueError):
        parse_xyz("3\ncomment\nA 0 0\n")


def test_fmt_significant_digits():
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(-0.0) == "0"
    assert to_csv([[1.0, 0.5]], ["a", "b"]) == "a,b\n1,0.5\n"


def test_cli_lattice_invariant(capsys):
    assert main(["lattice", "invariant", "--basis", "1", "0", "0", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "r12,r01,r02,sign,x,y"
    assert out[1] == "0,1,1,0,0,0"


def test_cli_cloud_compare(capsys):
    code = main(
        [
            "cloud",
            "compare",
            "--k",
            "3",
            str(FIXTURES / "trapezium.xyz"),
            str(FIXTURES / "kite.xyz"),
        ]
    )
    assert code == 0
    value = float(capsys.readouterr().out.splitlines()[1])
    assert value > 0


def test_cli_usage_error_exit_1(capsys):
    assert main(["no-such-command"]) == 1


def test_cli_bad_exponent_exit_1(capsys):
    kite, trap = str(FIXTURES / "kite.xyz"), str(FIXTURES / "trapezium.xyz")
    assert main(["cloud", "compare", kite, trap, "--q", "banana"]) == 1
    assert main(["cloud", "compare", kite, trap, "--q", "0.5"]) == 1
    assert "q >= 1" in capsys.readouterr().err


def test_cli_unread_options_rejected(capsys):
    kite, trap = str(FIXTURES / "kite.xyz"), str(FIXTURES / "trapezium.xyz")
    # cloud pdd reads no exponent; sdd_dist uses a Chebyshev max metric
    assert main(["cloud", "pdd", kite, "--q", "banana"]) == 1
    assert main(["simplex", "compare", kite, trap, "--q", "1"]) == 1
    assert main(["periodic", "ppc", str(FIXTURES / "cubic.cif"), "--k", "6"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_novelty(capsys):
    cubic = str(FIXTURES / "cubic.cif")
    assert main(["periodic", "novelty", cubic, str(FIXTURES), "--k", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "cubic,0"


def test_cli_data_error_exit_2(capsys):
    assert main(["cloud", "pdd", "/nonexistent/file.xyz"]) == 2


def test_cli_json_output(capsys):
    import json

    assert (
        main(
            [
                "periodic",
                "ppc",
                str(FIXTURES / "cubic.cif"),
                "--format",
                "json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    S = parse_cif_lite((FIXTURES / "cubic.cif").read_text())
    assert data["ppc"] == pytest.approx(ppc(S), abs=1e-9)


def test_cli_output_file(tmp_path):
    out = tmp_path / "res.csv"
    assert (
        main(["periodic", "amd", str(FIXTURES / "cubic.cif"), "--k", "6", "--output", str(out)])
        == 0
    )
    assert out.read_text().strip() == "1,1,1,1,1,1"


def test_cli_deterministic_output(capsys):
    args = ["cloud", "pdd", str(FIXTURES / "kite.xyz"), "--k", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_density_and_seq(capsys, tmp_path):
    assert (
        main(
            [
                "density",
                "rho",
                "--period",
                "1",
                "--points",
                "0",
                "0.3333333333333333",
                "0.5",
                "--k",
                "0",
            ]
        )
        == 0
    )
    assert float(capsys.readouterr().out.splitlines()[1]) == pytest.approx(7 / 72)
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0 1\n1 0\n1 1\n")
    assert main(["seq1", "cdm", str(pts)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3


def test_cli_backbone_round_trip(tmp_path, capsys):
    tsv = tmp_path / "chain.tsv"
    tsv.write_text(
        "1\t0\t0\t0\t1.5\t0\t0\t2\t1\t0\n2\t3\t1\t0.5\t4\t0.5\t0\t5\t1.5\t0.3\n"
    )
    out = tmp_path / "bri.csv"
    assert main(["backbone", "bri", str(tsv), "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2
    assert main(["backbone", "compare", str(tsv), str(tsv)]) == 0
    assert float(capsys.readouterr().out.splitlines()[1]) == 0.0


def test_cli_selftest():
    assert main(["selftest", "--seed", "3"]) == 0


def test_cli_lattice_design_round_trip(capsys):
    from geoinv.lattice2d import Basis2D, projected_invariant, root_invariant

    assert main(["lattice", "design", "--x", "0.2", "--y", "0.3", "--size", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "v1x,v1y,v2x,v2y"
    v = [float(t) for t in out[1].split(",")]
    ri = root_invariant(Basis2D(np.array(v[:2]), np.array(v[2:])))
    pi = projected_invariant(ri)
    assert (pi.x, pi.y, ri.size) == pytest.approx((0.2, 0.3, 2.0), abs=1e-9)


@pytest.mark.filterwarnings("ignore:loadtxt")
def test_cli_backbone_reconstruct_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["backbone", "reconstruct", str(empty)]) == 2
    assert "9 numbers" in capsys.readouterr().err


def test_cli_backbone_reconstruct_json(tmp_path, capsys):
    import json

    from geoinv.backbone import bri, read_tsv

    b = tmp_path / "bri.csv"
    b.write_text("1.5,0.5,1.2,0,0,0,0,0,0\n1.3,-0.4,1.1,1.5,0.5,0.2,1.4,0.3,-0.6\n")
    assert main(["backbone", "reconstruct", str(b)]) == 0
    tsv = tmp_path / "chain.tsv"
    tsv.write_text(capsys.readouterr().out)
    assert main(["backbone", "reconstruct", str(b), "--format", "json"]) == 0
    atoms = np.array(json.loads(capsys.readouterr().out)["atoms"])
    S = read_tsv(tsv)
    assert atoms.shape == (2, 3, 3)
    assert np.abs(atoms - S.atoms).max() < 1e-9
    assert np.abs(bri(S) - np.loadtxt(b, delimiter=",")).max() < 1e-9


def test_cli_density_compare_negative_k_exit_2(capsys):
    args = ["density", "compare", "--period", "1", "--points", "0.1", "0.3",
            "--points2", "0.2", "0.9", "--k", "-1"]
    assert main(args) == 2
    assert "k_max" in capsys.readouterr().err


def test_cli_seq1_zero_period2_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0.25 1\n0.5 0\n")
    assert main(["seq1", "metric", str(pts), str(pts), "--period", "1", "--period2", "0"]) == 2
    assert "period must be positive" in capsys.readouterr().err


def test_cli_seq1_nan_coordinate_exit_2(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0 0 0\n0.25 1 0\n0.5 0 1\n")
    bad.write_text("0 0 0\n0.25 nan 0\n0.5 0 1\n")
    assert main(["seq1", "cdm", str(bad)]) == 2
    assert main(["seq1", "metric", str(good), str(bad), "--period", "1"]) == 2
    assert capsys.readouterr().out == ""
