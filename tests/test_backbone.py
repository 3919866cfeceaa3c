"""Protein-backbone invariants: TRIN, BRI, BRAIN, mirror, reconstruction."""

from __future__ import annotations


import numpy as np
import pytest

from conftest import random_rotation
from geoinv.backbone import (
    Backbone,
    _frame,
    brain,
    bri,
    bri_dist,
    lipschitz_lambda,
    mirror_backbone,
    mirror_bri,
    read_tsv,
    reconstruct,
    subchain,
    trin,
    write_ppm,
    write_tsv,
)
from geoinv.cli import main
from test_cli_golden import FILES


def random_chain(rng, m):
    atoms = np.zeros((m, 3, 3))
    pos = np.zeros(3)
    for i in range(m):
        a = pos
        n = a + rng.normal(size=3)
        c = a + rng.normal(size=3)
        while np.linalg.norm(np.cross(n - a, c - a)) < 1e-2:
            c = a + rng.normal(size=3)
        atoms[i] = (n, a, c)
        pos = c + rng.normal(size=3) * 0.5 + np.array([2.0, 0, 0])
    return Backbone(atoms)


def protein_chain(rng, m):
    """(m, 3, 3) N/A/C coordinates with protein-like bond lengths; each bond
    leaves the previous one at 1.2 rad with a random azimuth."""
    kicks = rng.normal(size=(3 * m, 3))
    kicks /= np.linalg.norm(kicks, axis=1, keepdims=True)
    heading, pts = kicks[-1], [np.zeros(3)]
    for length, kick in zip(np.tile([1.46, 1.52, 1.33], m)[: 3 * m - 1], kicks):
        heading = heading * np.cos(1.2) + kick * np.sin(1.2)
        heading /= np.linalg.norm(heading)
        pts.append(pts[-1] + length * heading)
    return np.array(pts).reshape(m, 3, 3)


def _loop_reconstruct(b):
    """Verbatim copy of the per-residue reconstruction loop that the composed
    frames replaced (input checks dropped); the oracle for ``reconstruct``."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    m = len(b)
    l, x, y = b[0, :3]
    atoms = np.empty((m, 3, 3))
    a = np.zeros(3)
    n = np.array([l, 0.0, 0.0])
    c = np.array([x, y, 0.0])
    atoms[0] = (n, a, c)
    for i in range(1, m):
        bonds = b[i].reshape(3, 3) @ _frame(n, a, c)
        n = c + bonds[0]
        a = n + bonds[1]
        c = a + bonds[2]
        atoms[i] = (n, a, c)
    return Backbone(atoms)


def test_trin_golden():
    S = Backbone(np.array([[[0, 0, 0], [1.5, 0, 0], [2, 1, 0]]], float))
    assert trin(S) == pytest.approx(np.array([[1.5, -0.5, 1.0]]), abs=1e-12)


def test_trin_mirror_blind(rng):
    S = random_chain(rng, 4)
    assert trin(mirror_backbone(S)) == pytest.approx(trin(S), abs=1e-12)


def test_collinear_residue_rejected():
    with pytest.raises(ValueError):
        Backbone(np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], float))


def test_first_bad_residue_is_named(rng):
    atoms = random_chain(rng, 4).atoms.copy()
    atoms[2] = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(ValueError, match="residue 3: collinear"):
        Backbone(atoms)
    atoms[1, 0] = atoms[1, 1] + 1e-3
    with pytest.raises(ValueError, match="residue 2: bonded atoms too close"):
        Backbone(atoms)
    atoms[1, 0] = atoms[1, 1]
    with pytest.raises(ValueError, match="residue 2: bonded atoms too close"):
        Backbone(atoms)


def test_non_finite_atoms_rejected(rng):
    atoms = random_chain(rng, 3).atoms.copy()
    atoms[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Backbone(atoms)


def test_bri_rigid_invariance(rng):
    for _ in range(20):
        S = random_chain(rng, int(rng.integers(2, 12)))
        Rm = random_rotation(rng, 3)
        moved = Backbone(S.atoms @ Rm.T + rng.normal(size=3))
        assert bri_dist(S, moved) < 1e-9


def test_bri_matches_per_residue_frames(rng):
    for scale in (1.0, 100.0):
        S = Backbone(random_chain(rng, 30).atoms * scale + scale)
        want = np.zeros((S.m, 9))
        want[0, :3] = trin(S)[0]
        for i in range(1, S.m):
            n0, a0, c0 = S.atoms[i - 1]
            u = (n0 - a0) / np.linalg.norm(n0 - a0)
            h = (c0 - a0) - ((c0 - a0) @ u) * u
            v = h / np.linalg.norm(h)
            frame = np.stack([u, v, np.cross(u, v)])
            n, a, c = S.atoms[i]
            want[i] = np.concatenate([frame @ (n - c0), frame @ (a - n), frame @ (c - a)])
        assert np.abs(bri(S) - want).max() <= 1e-12 * np.abs(S.atoms).max()


def test_bri_single_residue_row():
    S = Backbone(np.array([[[0, 0, 0], [1.5, 0, 0], [2, 1, 0]]], float))
    b = bri(S)
    assert b.shape == (1, 9)
    assert b[0] == pytest.approx([1.5, -0.5, 1.0, 0, 0, 0, 0, 0, 0], abs=1e-12)


def test_mirror_rule(rng):
    S = random_chain(rng, 6)
    b = bri(S)
    bm = bri(mirror_backbone(S))
    assert bm == pytest.approx(mirror_bri(b), abs=1e-9)
    # only columns 3, 6, 9 of rows >= 2 differ
    mask = np.zeros_like(b, dtype=bool)
    mask[1:, [2, 5, 8]] = True
    assert np.abs((b - bm)[~mask]).max() < 1e-9


def test_mirror_distance_is_twice_max_z(rng):
    S = random_chain(rng, 5)
    b = bri(S)
    assert bri_dist(b, mirror_bri(b)) == pytest.approx(
        2 * np.abs(b[1:, [2, 5, 8]]).max(), abs=1e-12
    )


def test_planar_chain_equals_mirror():
    atoms = np.array(
        [
            [[0, 0, 0], [1.5, 0, 0], [2, 1, 0]],
            [[3, 1, 0], [4, 0.5, 0], [5, 1.5, 0]],
        ],
        float,
    )
    S = Backbone(atoms)
    assert bri_dist(S, mirror_backbone(S)) < 1e-12


def test_reconstruct_round_trip(rng):
    for _ in range(10):
        S = random_chain(rng, int(rng.integers(2, 15)))
        b = bri(S)
        assert np.abs(bri(reconstruct(b)) - b).max() < 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 100, 1000, 5000])
def test_reconstruct_matches_the_residue_loop(m):
    rng = np.random.default_rng(m)
    b = bri(Backbone(protein_chain(rng, m)))
    S = reconstruct(b)
    assert bri_dist(b, bri(S)) <= 1e-12
    assert np.abs(S.atoms - _loop_reconstruct(b).atoms).max() <= 1e-9


def test_reconstruct_places_the_first_residue(rng):
    b = bri(Backbone(protein_chain(rng, 4)))
    n, a, c = reconstruct(b).atoms[0]
    assert np.array_equal(a, np.zeros(3))
    assert n[0] > 0 and n[1] == n[2] == 0.0 and c[2] == 0.0


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("row, col", [(0, 0), (0, 2), (2, 4), (4, 8)])
def test_reconstruct_rejects_non_finite_entries(rng, value, row, col):
    b = bri(Backbone(protein_chain(rng, 5)))
    b[row, col] = value
    with pytest.raises(ValueError, match="non-finite BRI entries"):
        reconstruct(b)


def test_reconstruct_names_a_row_without_frame(rng):
    b = bri(Backbone(protein_chain(rng, 6)))
    zero_na, zero_ac = b.copy(), b.copy()
    zero_na[2, 3:6] = 0.0
    zero_ac[4, 6:9] = 0.0
    for bad, row in ((zero_na, 3), (zero_ac, 5)):
        with pytest.raises(ValueError, match=f"BRI row {row}: no frame"):
            reconstruct(bad)
    # rounding may leave parallel bonds a finite frame, which Backbone rejects
    parallel = b.copy()
    parallel[3, 6:9] = -2.0 * parallel[3, 3:6]
    with pytest.raises(ValueError, match="BRI row 4: no frame|residue 4: collinear"):
        reconstruct(parallel)


def test_reconstruct_and_backbone_reject_huge_values(rng):
    b = bri(Backbone(protein_chain(rng, 4)))
    b[2, 3:6] = 1e300  # squares would overflow in the frame norms
    with pytest.raises(ValueError, match="BRI entries above 1e\\+150"):
        reconstruct(b)
    with pytest.raises(ValueError, match="coordinates above 1e\\+150"):
        Backbone(protein_chain(rng, 3) + 1e200)


def test_subchain_matches_geometry(rng):
    S = random_chain(rng, 10)
    b = bri(S)
    for i, j in ((1, 4), (3, 5), (6, 5), (10, 1)):
        sub = subchain(b, i, j)
        geo = bri(Backbone(S.atoms[i - 1 : i - 1 + j]))
        assert np.abs(sub - geo).max() < 1e-9
        # reused rows are bit-equal
        assert np.array_equal(sub[1:], b[i : i + j - 1])
    assert np.array_equal(subchain(b, 1, 4), b[:4])


@pytest.mark.parametrize("i, j, name", [(1.5, 2, "i"), (2.0, 2, "i"), (1, 2.5, "j"), (1, "2", "j")])
def test_subchain_non_integer_bounds_rejected(rng, i, j, name):
    # a non-integer i ended in IndexError, a non-integer j in TypeError
    b = bri(random_chain(rng, 5))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        subchain(b, i, j)
    assert np.array_equal(subchain(b, np.int64(2), np.int64(3)), subchain(b, 2, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bri_dist_rejects_non_finite_arrays(rng, bad):
    # a NaN entry made the Chebyshev distance nan
    b = bri(random_chain(rng, 4))
    c = b.copy()
    c[2, 4] = bad
    for S, Q in ((b, c), (c, b), (c, c)):
        with pytest.raises(ValueError, match="non-finite BRI entries"):
            bri_dist(S, Q)


def test_brain_filter_bound(rng):
    for _ in range(50):
        m = int(rng.integers(2, 10))
        S, Q = random_chain(rng, m), random_chain(rng, m)
        assert np.abs(brain(S) - brain(Q)).max() <= bri_dist(S, Q) + 1e-12


def test_bri_lipschitz(rng):
    for _ in range(20):
        S = random_chain(rng, int(rng.integers(2, 8)))
        eps = 10 ** rng.uniform(-6, -3)
        noise = rng.uniform(-1, 1, size=S.atoms.shape)
        noise *= eps / np.linalg.norm(noise, axis=2, keepdims=True)
        Q = Backbone(S.atoms + noise)
        lam = lipschitz_lambda(S, Q)
        assert bri_dist(S, Q) <= lam * eps + 1e-12


def test_tsv_round_trip(tmp_path, rng):
    S = random_chain(rng, 5)
    path = tmp_path / "chain.tsv"
    write_tsv(path, S)
    T = read_tsv(path)
    assert np.abs(T.atoms - S.atoms).max() < 1e-9


def test_write_tsv_writes_the_cli_reconstruct_text(tmp_path, capsys):
    bri_csv, tsv = tmp_path / "bri.csv", tmp_path / "chain.tsv"
    bri_csv.write_text(FILES["bri.csv"])
    assert main(["backbone", "reconstruct", str(bri_csv)]) == 0
    write_tsv(tsv, reconstruct(np.loadtxt(bri_csv, delimiter=",")))
    assert tsv.read_text() == capsys.readouterr().out


def test_write_tsv_writes_negative_zero_as_zero(tmp_path, rng):
    # np.savetxt wrote -0.0 as "-0"; the CLI's text has always written "0"
    atoms = random_chain(rng, 3).atoms
    atoms = atoms - atoms[0, 0]
    atoms[0, 0] = -0.0
    path = tmp_path / "chain.tsv"
    write_tsv(path, Backbone(atoms))
    first = path.read_text().splitlines()[0].split("\t")
    assert first[:4] == ["1", "0", "0", "0"]
    assert "-0" not in path.read_text().replace("-0.", "")


def test_ppm_export(tmp_path, rng):
    S = random_chain(rng, 4)
    path = tmp_path / "bri.ppm"
    write_ppm(path, bri(S))
    text = path.read_text().split()
    assert text[0] == "P3"
    assert int(text[1]) == 4 and int(text[2]) == 3
    vals = list(map(int, text[4:]))
    assert len(vals) == 4 * 3 * 3
    assert all(0 <= v <= 255 for v in vals)


def test_bri_dist_and_brain_read_nested_lists(rng):
    # a nested-list BRI was passed to bri() and ended in AttributeError
    b = bri(random_chain(rng, 5))
    c = bri(random_chain(rng, 5))
    assert bri_dist(b.tolist(), c) == bri_dist(b, c.tolist()) == bri_dist(b, c)
    assert bri_dist(b.tolist(), b.tolist()) == 0.0
    assert np.array_equal(brain(b.tolist()), brain(b))


@pytest.mark.parametrize("shape", ["3-D", "NaN", "empty rows", "empty list"])
def test_mirror_bri_and_brain_reject_bad_input(rng, shape):
    # mirror_bri ended in IndexError on a 3-D array and returned a NaN or
    # empty BRI mirrored; brain returned a vector for a NaN BRI
    b = bri(random_chain(rng, 4))
    if shape == "NaN":
        b[2, 5] = np.nan
        match = "non-finite BRI entries"
    else:
        b = {"3-D": b[None], "empty rows": b[:0], "empty list": []}[shape]
        match = "m >= 1 rows of 9 numbers"
    for f in (mirror_bri, brain):
        with pytest.raises(ValueError, match=match):
            f(b)


def test_subchain_and_write_ppm_read_the_bri(rng, tmp_path):
    # subchain returned a sub-BRI holding NaN and ended in a broadcast error
    # on a 3-D array; write_ppm wrote a NaN BRI as garbage pixels (with a
    # RuntimeWarning) and a 3-D one as a file
    b = bri(random_chain(rng, 4))
    nan = b.copy()
    nan[2, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite BRI entries"):
        subchain(nan, 2, 3)
    with pytest.raises(ValueError, match="m >= 1 rows of 9 numbers"):
        subchain(b[None], 1, 1)
    path = tmp_path / "b.ppm"
    with pytest.raises(ValueError, match="non-finite BRI entries"):
        write_ppm(path, nan)
    with pytest.raises(ValueError, match="m >= 1 rows of 9 numbers"):
        write_ppm(path, b[None])
    assert not path.exists()
