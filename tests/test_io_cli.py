"""File formats and the command-line interface."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

from geoinv import cli
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


def test_cif_uncertainty_on_one_coordinate_of_one_row():
    plain = (FIXTURES / "hexagonal.cif").read_text() + "C2 0.25 0.5 0.75 1.0\nC3 0.5 0.125 0.5 1.0\n"
    text = plain.replace("C2 0.25 0.5", "C2 0.25(3) 0.5")
    assert text != plain
    S, T = parse_cif_lite(text), parse_cif_lite(plain)
    assert np.array_equal(S.motif, T.motif) and S.labels == T.labels == ["C1", "C2", "C3"]


def test_cif_second_data_block_rejected():
    # two crystals in one file used to merge into one motif
    text = (FIXTURES / "cubic.cif").read_text()
    with pytest.raises(ValueError, match="data_ block"):
        parse_cif_lite(text + text.replace("data_", "data_second_").replace("C1 0.0", "C2 0.5"))


def test_cif_aniso_loop_skipped():
    text = (FIXTURES / "hexagonal.cif").read_text() + (
        "loop_\n_atom_site_aniso_label\n_atom_site_aniso_U_11\n_atom_site_aniso_U_22\n"
        "C1 0.01 0.02\n"
    )
    S = parse_cif_lite(text)
    T = parse_cif_lite((FIXTURES / "hexagonal.cif").read_text())
    assert np.array_equal(S.motif, T.motif) and np.array_equal(S.basis, T.basis)


_CUBIC_LOOP = "loop_\n_atom_site_label\n_atom_site_fract_x\n_atom_site_fract_y\n_atom_site_fract_z\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t + "loop_\n_symmetry_equiv_pos_as_xyz\nx,y,z\n-x,-y,-z\n",
         "only P1 CIFs are supported (symmetry operations found)"),
        (lambda t: t + "loop_\n_space_group_symop_id\n_space_group_symop_operation_xyz\n"
         "1 x,y,z\n2 -x,y,-z\n", "only P1 CIFs are supported (symmetry operations found)"),
        (lambda t: t.replace("_atom_site_fract_", "_atom_site_Cartn_"),
         "atom_site loop lacks fractional coordinates"),
        (lambda t: t.replace("C1 0.0 0.0 0.0", "C1 0.0 0.0"), "short atom_site row"),
        (lambda t: t.split("loop_")[0], "no atom_site loop found"),
        (lambda t: t.replace("C1 0.0 0.0 0.0\n", ""), "no atom_site loop found"),
        (lambda t: t.replace(_CUBIC_LOOP, "loop_\n_atom_type_symbol\nC\n"),
         "no atom_site loop found"),
        (lambda t: t.replace("_cell_length_b 1.0", "_cell_length_b 0"),
         "cell lengths must be positive"),
        (lambda t: t.replace("_cell_length_c 1.0", "_cell_length_c -2.5"),
         "cell lengths must be positive"),
    ],
)
def test_cif_faults_rejected(tmp_path, capsys, edit, message):
    text = edit((FIXTURES / "cubic.cif").read_text())
    with pytest.raises(ValueError) as err:
        parse_cif_lite(text)
    assert message in str(err.value)
    cif = tmp_path / "bad.cif"
    cif.write_text(text)
    assert main(["periodic", "amd", str(cif), "--k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"geoinv: {message}" in captured.err


def test_cif_loops_before_the_atom_loop_skipped():
    # a comment, a non-atom loop, a symmetry loop holding the identity alone
    # and a loop that mixes _space_group_symop with _atom_site items are
    # passed over on the way to the atom_site loop
    cubic = (FIXTURES / "cubic.cif").read_text()
    skipped = (
        "# comments and blank lines are dropped\n\n"
        "loop_\n_atom_type_symbol\n_atom_type_oxidation_number\nC 0\n"
        "loop_\n_space_group_symop_id\n_space_group_symop_operation_xyz\n1 x,y,z\n"
        "loop_\n_space_group_symop_id\n_atom_site_symmetry_multiplicity\n1 1\n"
    )
    S = parse_cif_lite(cubic.replace(_CUBIC_LOOP, skipped + _CUBIC_LOOP))
    T = parse_cif_lite(cubic)
    assert np.array_equal(S.motif, T.motif) and np.array_equal(S.basis, T.basis)
    assert S.labels == T.labels == ["C1"]


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


@pytest.mark.parametrize(
    "basis, message",
    [
        (["nan", "0", "0", "1"], "non-finite basis"),
        (["1e160", "0", "0", "1e160"], "basis vector too long"),
    ],
)
def test_cli_lattice_bad_basis_exit_2(capsys, basis, message):
    assert main(["lattice", "invariant", "--basis", *basis]) == 2
    assert message in capsys.readouterr().err


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


def test_cli_shared_parser_equals_a_fresh_one(monkeypatch, capsys):
    # a usage error between two valid calls leaves the shared parser as it was
    calls = [
        ["lattice", "invariant", "--basis", "1", "0", "0.3", "1.2"],
        ["lattice", "invariant", "--basis", "1", "0", "0.3"],
        ["periodic", "novelty", str(FIXTURES / "hexagonal.cif"), str(FIXTURES), "--k", "6"],
    ]

    def run():
        results = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = run()
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [0, 1, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run() == shared


def test_cli_bad_exponent_exit_1(capsys):
    kite, trap = str(FIXTURES / "kite.xyz"), str(FIXTURES / "trapezium.xyz")
    assert main(["cloud", "compare", kite, trap, "--q", "banana"]) == 1
    assert main(["cloud", "compare", kite, trap, "--q", "0.5"]) == 1
    assert "q >= 1" in capsys.readouterr().err


def test_cli_unread_options_rejected(capsys, tmp_path):
    kite, trap = str(FIXTURES / "kite.xyz"), str(FIXTURES / "trapezium.xyz")
    out = tmp_path / "out.json"
    # cloud pdd reads no exponent; sdd_dist uses a Chebyshev max metric
    for argv in (
        ["cloud", "pdd", kite, "--q", "banana"],
        ["simplex", "compare", kite, trap, "--q", "1"],
        ["periodic", "ppc", str(FIXTURES / "cubic.cif"), "--k", "6"],
        # sdd is not centred, scd has the order of its dimension, selftest prints
        ["simplex", "sdd", kite, "--no-center"],
        ["simplex", "scd", kite, "--order", "3"],
        ["selftest", "--format", "json", "--output", str(out)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
    assert not out.exists()


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


def test_cli_backbone_reconstruct_non_finite_exit_2(tmp_path, capsys):
    b = tmp_path / "bri.csv"
    b.write_text("1.5,0.5,1.2,0,0,0,0,0,0\n1.3,-0.4,1.1,inf,0.5,0.2,1.4,0.3,-0.6\n")
    assert main(["backbone", "reconstruct", str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite BRI entries" in captured.err


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


@pytest.mark.parametrize("action, extra", [
    ("psi", []),
    ("compare", ["--points2", "0.2", "0.9"]),
])
@pytest.mark.parametrize("k", ["100000000000000000000", "9000000000000000000"])
def test_cli_density_k_over_budget_exit_2(capsys, action, extra, k):
    args = ["density", action, "--period", "1", "--points", "0", "0.3", *extra, "--k", k]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hinge budget" in captured.err


def test_cli_main_leaves_environment_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("GEOINV_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert main(["density", "rho", "--period", "1", "--points", "0", "0.3", "--k", "0"]) == 0
    assert dict(os.environ) == before


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


def test_cli_periodic_neighbour_budget_exit_2(capsys):
    cubic = str(FIXTURES / "cubic.cif")
    assert main(["periodic", "pdd", cubic, "--k", "1000000000"]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_dedup_nan_threshold_exit_2(capsys):
    assert main(["periodic", "dedup", str(FIXTURES), "--threshold", "nan"]) == 2
    assert "threshold" in capsys.readouterr().err


def test_cli_seq1_over_budget_exit_2(tmp_path, capsys):
    # lcm 89 700: the CDM alone would need about 64 GB
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("".join(f"{i / 300} 0\n" for i in range(300)))
    b.write_text("".join(f"{i / 299} 0\n" for i in range(299)))
    assert main(["seq1", "metric", str(a), str(b), "--period", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


def test_cli_seq1_one_point_motifs(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("0 1.5\n")
    assert main(["seq1", "metric", str(one), str(one), "--period", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["dist", "0"]


def test_cli_density_compare_nan_period_exit_2(capsys):
    args = ["density", "compare", "--period", "nan", "--points", "0", "0.3",
            "--period2", "1", "--points2", "0", "0.3"]
    assert main(args) == 2
    assert "period" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\nempty\n", "no points"),
        ("2\nlabels only\nA\nB\n", "no coordinates"),
        ("2\nragged\nA 0 1\nB 0\n", "inconsistent XYZ coordinate counts"),
    ],
)
def test_cli_xyz_fault_named_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.xyz"
    path.write_text(text)
    assert main(["cloud", "pdd", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("length", ["inf", "1e200", "nan"])
def test_cli_cif_infinite_or_overflowing_cell_exit_2(tmp_path, length):
    # run in a subprocess with a timeout: an inf cell used to hang in the
    # SVD of pinv, a 1e200 cell in an endless neighbour search
    import subprocess
    import sys

    cif = tmp_path / "bad.cif"
    cif.write_text((FIXTURES / "cubic.cif").read_text().replace(
        "_cell_length_a 1.0", f"_cell_length_a {length}"))
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys; from geoinv.cli import main; sys.exit(main(sys.argv[1:]))"
    args = ["periodic", "amd", str(cif), "--k", "4"]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "lengths, message",
    [
        ((1e120, 1.0, 1.0), "coefficient box (cell lengths 1e+120, 1, 1)"),
        ((1e120, 1e120, 1e120), "cell volume overflows for cell lengths 1e+120, 1e+120, 1e+120"),
    ],
)
def test_cli_cif_extreme_cell_is_named(tmp_path, capsys, lengths, message):
    text = (FIXTURES / "cubic.cif").read_text()
    for axis, length in zip("abc", lengths):
        text = text.replace(f"_cell_length_{axis} 1.0", f"_cell_length_{axis} {length:g}")
    cif = tmp_path / "extreme.cif"
    cif.write_text(text)
    assert main(["periodic", "amd", str(cif), "--k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def _xyz(points):
    return f"{len(points)}\n\n" + "".join(f"X {x} {y} {z}\n" for x, y, z in points)


def test_cli_cloud_compare_over_emd_budget_exit_2(tmp_path, capsys, monkeypatch):
    # 30 against 29 points: a transportation LP of 58 x 870 = 50460 constraint cells
    from geoinv import numcore

    monkeypatch.setattr(numcore, "EMD_CELL_BUDGET", 5 * 10**4)
    rng = np.random.default_rng(5)
    a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    a.write_text(_xyz(rng.uniform(size=(30, 3))))
    b.write_text(_xyz(rng.uniform(size=(29, 3))))
    assert main(["cloud", "compare", str(a), str(b), "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "5.05e+04 constraint cells, over the budget of 50000" in captured.err


@pytest.mark.parametrize("order, message", [
    ("3", "4 x 6 orders x 12 = 288 form cells, over the budget of 100"),
    ("2", "4 x 4 x 2 orders x 2 x 2 = 128 cost cells, over the budget of 100"),
])
def test_cli_simplex_compare_over_cell_budget_exit_2(capsys, monkeypatch, order, message):
    from geoinv import simplexwise

    monkeypatch.setattr(simplexwise, "SIMPLEX_CELL_BUDGET", 100)
    kite, trap = str(FIXTURES / "kite.xyz"), str(FIXTURES / "trapezium.xyz")
    assert main(["simplex", "compare", kite, trap, "--order", order]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("_cell_length_b 1.0\n", ""),
         "broken.cif: missing CIF tag _cell_length_b"),
        (lambda text: text + "C2 0.0 0.0 1.0\n", "broken.cif: duplicate motif points"),
        (lambda text: text.replace("_cell_length_a 1.0", "_cell_length_a 1e120")
         .replace("_cell_length_b 1.0", "_cell_length_b 1e120")
         .replace("_cell_length_c 1.0", "_cell_length_c 1e120"),
         "broken.cif: cell volume overflows"),
    ],
)
def test_cli_directory_readers_name_the_bad_file(tmp_path, capsys, edit, message):
    cubic = (FIXTURES / "cubic.cif").read_text()
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.cif").write_text(cubic.replace("1.0", "1.5"))
    (tmp_path / "broken.cif").write_text(edit(cubic))
    (tmp_path / "d.cif").write_text(cubic)
    query = str(FIXTURES / "cubic.cif")
    for argv in (["periodic", "dedup", str(tmp_path)], ["periodic", "novelty", query, str(tmp_path)]):
        assert main([*argv, "--k", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"geoinv: {message}" in captured.err


def test_python_m_geoinv_runs_the_cli():
    import subprocess
    import sys

    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-m", "geoinv", "periodic", "ppc", str(FIXTURES / "cubic.cif")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "ppc"


@pytest.mark.parametrize("argv", [
    ["seq1", "cdm", "{empty}"],
    ["seq1", "metric", "--period", "1", "{a}", "{empty}"],
    ["backbone", "reconstruct", "{empty}"],
    ["backbone", "bri", "{comment}"],
])
def test_cli_text_file_without_data_gives_one_message(tmp_path, capsys, argv):
    # numpy's "input contained no data" warning came first, an error under
    # this suite's warning filter
    files = {"a": "0 0 0\n0.2 1 0.5\n0.45 0.5 -1\n", "empty": "", "comment": "# no rows\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text)
    argv = [arg.format(**{name: tmp_path / f"{name}.txt" for name in files}) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("geoinv: ") and lines[0].endswith(f" in {argv[-1]}")
