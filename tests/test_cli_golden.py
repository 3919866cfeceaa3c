"""Golden output of the command-line interface.

Every action runs once in CSV and once in JSON, with the options it reads,
over copies of ``tests/fixtures`` and small files written here; a few usage
and data errors ride along.  The expected (exit code, stdout, stderr, and
the ``--output`` file) of each invocation is stored in
``tests/fixtures/cli_golden.json``.  Paths are relative to the working
directory, so the messages hold no machine path, and usage messages are
wrapped at ``COLUMNS`` = 80.

Regenerate the file only for a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from geoinv.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"

CHAIN = [
    [0, 0, 0, 1.5, 0, 0, 2, 1, 0],
    [3, 1, 0.5, 4, 0.5, 0, 5, 1.5, 0.3],
    [6, 0, 1, 7.5, 0.2, 0.8, 8, 1.2, 1.1],
    [9, 0.5, 0.4, 10.2, 0.1, 1.3, 11, 1.4, 0.9],
]

FILES = {
    "tetra.xyz": "5\ntetra\nA 0 0 0\nB 1.5 0 0\nC 0 2 0\nD 0 0 2.5\nE 1 1 1.2\n",
    "pts.txt": "0 0 0\n0.2 1 0.5\n0.45 0.5 -1\n0.7 2 0\n",
    "pts2.txt": "0 0.1 0\n0.3 1 1\n0.5 2.2 -0.5\n",
    "chain.tsv": "".join(
        "\t".join(map(str, [i + 1, *row])) + "\n" for i, row in enumerate(CHAIN)
    ),
    "chain2.tsv": "".join(
        "\t".join(map(str, [i + 1, *(v + 0.01 * ((i + j) % 3) for j, v in enumerate(row))]))
        + "\n"
        for i, row in enumerate(CHAIN)
    ),
    "bri.csv": "1.5,0.5,1.2,0,0,0,0,0,0\n1.3,-0.4,1.1,1.5,0.5,0.2,1.4,0.3,-0.6\n",
    "crystals/cubic.cif": (FIXTURES / "cubic.cif").read_text(),
    "crystals/hexagonal.cif": (FIXTURES / "hexagonal.cif").read_text(),
    "crystals/near.cif": (FIXTURES / "cubic.cif").read_text().replace(
        "_cell_length_a 1.0", "_cell_length_a 1.001"
    ),
}

BASIS = "--basis 1 0 0.3 1.1"
DENSITY = "--period 1 --points 0 0.3 0.45"

#: one line per invocation, split on whitespace
CASES = [
    "cloud srd kite.xyz",
    "cloud srd tetra.xyz --format json",
    "cloud spd kite.xyz",
    "cloud spd tetra.xyz --format json",
    "cloud pdd kite.xyz",
    "cloud pdd tetra.xyz --k 3 --tol 0.5 --format json",
    "cloud compare kite.xyz trapezium.xyz",
    "cloud compare kite.xyz trapezium.xyz --k 2 --q 1 --tol 0.1 --format json",
    "simplex sdd kite.xyz",
    "simplex sdd tetra.xyz --order 3 --format json",
    "simplex scd kite.xyz",
    "simplex scd tetra.xyz --no-center --format json",
    "simplex compare kite.xyz trapezium.xyz",
    "simplex compare kite.xyz trapezium.xyz --order 3 --mode lac --format json",
    "simplex compare kite.xyz trapezium.xyz --invariant scd --no-center",
    "simplex compare kite.xyz trapezium.xyz --invariant scd --mode lac --format json",
    f"lattice reduce {BASIS}",
    f"lattice reduce {BASIS} --format json",
    f"lattice invariant {BASIS}",
    f"lattice invariant {BASIS} --format json",
    f"lattice metric {BASIS} --other 1 0 0 1",
    f"lattice metric {BASIS} --other 1 0 0.5 0.9 --q 1 --oriented --projected --format json",
    f"lattice chiral {BASIS}",
    f"lattice chiral {BASIS} --group D4 --q 1 --projected --format json",
    f"lattice map {BASIS}",
    "lattice map --basis 1 0 0 1 --format json",
    "lattice design --x 0.2 --y 0.3 --size 2",
    "lattice design --x 0.1 --y 0.25 --size 1.5 --sign -1 --format json",
    "periodic pdd hexagonal.cif --k 8",
    "periodic pdd hexagonal.cif --k 8 --tol 0.01 --format json",
    "periodic amd cubic.cif --k 6",
    "periodic amd hexagonal.cif --k 4 --format json",
    "periodic ppc hexagonal.cif",
    "periodic ppc cubic.cif --format json",
    "periodic ada hexagonal.cif --k 6",
    "periodic ada cubic.cif --k 4 --format json",
    "periodic compare cubic.cif hexagonal.cif --k 6",
    "periodic compare cubic.cif hexagonal.cif --k 4 --q 1 --format json",
    "periodic dedup crystals --k 6",
    "periodic dedup crystals --k 4 --threshold 0.5 --format json",
    "periodic novelty hexagonal.cif crystals --k 6",
    "periodic novelty cubic.cif crystals --k 4 --format json",
    f"density psi {DENSITY}",
    f"density psi {DENSITY} --radii 0.05 0.1 0 --k 2 --format json",
    f"density rho {DENSITY}",
    f"density rho {DENSITY} --k 1 --format json",
    f"density compare {DENSITY} --points2 0.1 0.4 0.5",
    f"density compare {DENSITY} --radii 0.02 0.01 0 --period2 2 --points2 0 0.6 0.9 "
    "--radii2 0.04 0.02 0 --k 2 --format json",
    "seq1 cdm pts.txt",
    "seq1 cdm pts2.txt --format json",
    "seq1 metric pts.txt pts2.txt --period 1",
    "seq1 metric pts.txt pts2.txt --period 1 --period2 1.5 --q 1 --group dihedral "
    "--equivalence rigid --format json",
    "backbone bri chain.tsv",
    "backbone bri chain2.tsv --format json",
    "backbone brain chain.tsv",
    "backbone brain chain2.tsv --format json",
    "backbone compare chain.tsv chain2.tsv",
    "backbone compare chain.tsv chain2.tsv --format json",
    "backbone reconstruct bri.csv",
    "backbone reconstruct bri.csv --format json",
    "selftest --seed 3",
    "periodic amd cubic.cif --k 6 --output out.csv",
    "lattice map --basis 1 0 0 1 --format json --output out.json",
    # usage errors (exit 1) and data errors (exit 2)
    "cloud pdd",
    "lattice invariant --basis 1 0 0",
    "periodic ppc cubic.cif --k 6",
    "simplex compare kite.xyz trapezium.xyz --q 1",
    "cloud pdd missing.xyz",
    "simplex sdd kite.xyz --order 4",
    "lattice invariant --basis 1 0 2 0",
    "periodic dedup empty",
    "seq1 metric pts.txt pts2.txt --period 0",
]


def _write_inputs(root):
    for name in ("kite.xyz", "trapezium.xyz", "cubic.cif", "hexagonal.cif"):
        shutil.copy(FIXTURES / name, root / name)
    for name, text in FILES.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    (root / "empty").mkdir()


def _run(case):
    """What ``main`` returns, prints and writes for one invocation."""
    argv = case.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--output" in argv:
        path = Path(argv[argv.index("--output") + 1])
        record["file"] = path.read_text()
        path.unlink()
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_cli_golden(case, golden, tmp_path, monkeypatch):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(case) == golden[case]


if __name__ == "__main__":
    import os
    import tempfile

    here = Path.cwd()
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            records = {case: _run(case) for case in CASES}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} invocations to {GOLDEN}")
