"""The one-pass CIF-lite reader against the two-pass reference copy in
``legacy_io``, on seeded line mutations of the two fixture CIFs: both must
return the same basis, fractional motif and labels, or raise the same error.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import legacy_io
import pytest

from geoinv.io import _cif_fields

FIXTURES = Path(__file__).parent / "fixtures"

#: (weight, lines) inserted as one piece; the weights make every outcome occur
POOL = [
    (3, ["loop_"]), (3, ["LOOP_"]), (3, ["Loop_"]), (2, ["DATA_y"]), (2, ["data_second"]),
    (2, ["# a comment"]), (1, [""]), (1, ["   "]),
    (6, ["C2 0.25 0.5 0.75"]), (3, ["O1 0.5 0.5 0.5 1.0"]), (3, ["C3 0.6(2) 0.5 0.1(1)"]),
    (4, ["C4 0.5 0.5"]), (4, ["C5 0.5 0.5 0.5 0.5"]), (3, ["C6 nan 0.5 0.5"]),
    (2, ["C7 x 0.5 0.5"]), (2, ["x"]),
    (2, ["_atom_site_occupancy"]), (2, ["_atom_site_type_symbol"]), (2, ["_atom_site_fract_x"]),
    (2, ["_atom_site_label"]), (1, ["_atom_site_fract_z 0.5"]),
    (2, ["_cell_length_a 2.0(1)"]), (1, ["_cell_length_b nan"]), (1, ["_cell_angle_beta 0"]),
    (1, ["_cell_length_c"]), (2, ["_symmetry_space_group_name_H-M 'P 21'"]),
    (1, ["_space_group_IT_number 1"]), (1, ["_space_group_IT_number 14"]),
    (3, ["x, y, z"]), (3, ["-x, -y, z"]), (3, ["2 -x,y,-z"]), (2, ["'x+1/2, y, z'"]),
    (3, ["loop_", "_atom_site_label", "_atom_site_fract_x", "_atom_site_fract_y",
         "_atom_site_fract_z"]),
    (3, ["loop_", "_atom_site_label", "_atom_site_fract_x"]),
    (2, ["loop_", "_atom_site_label", "_atom_site_fract_x", "_atom_site_fract_y",
         "_atom_site_fract_z", "N1 0.1 0.2 0.3"]),
    (2, ["loop_", "_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z",
         "_atom_site_occupancy", "0.1 0.2 0.3 0.5"]),
    (3, ["loop_", "_atom_site_aniso_label", "_atom_site_aniso_U_11", "C1 0.01"]),
    (4, ["loop_", "_symmetry_equiv_pos_as_xyz", "x,y,z", "-x,-y,-z"]),
    (3, ["loop_", "_space_group_symop_id", "_space_group_symop_operation_xyz", "1 x,y,z",
         "2 -x,y,-z"]),
    (2, ["loop_", "_other_tag", "C8 0.1 0.1 0.1"]),
]
WEIGHTS = [w for w, _ in POOL]

#: outcome class -> the start of its error message (None: the text parses); a
#: message is classed by the first start it has
OUTCOMES = {
    "parsed": None,
    "data blocks": "more than one data_ block",
    "missing tag": "missing CIF tag",
    "cell": "cell ",
    "symmetry operations": "only P1 CIFs are supported (symmetry operations found)",
    "P1 tag": "only P1 CIFs are supported (",
    "fractional headers": "atom_site loop lacks fractional coordinates",
    "short row": "short atom_site row",
    "occupancy": "occupancy != 1",
    "number": "could not convert",
    "no loop": "no atom_site loop found",
}


def _mutate(rng, lines):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        move = rng.choice(("insert", "insert", "delete", "duplicate", "swap"))
        if move == "insert":
            at = rng.randint(0, len(lines))
            lines[at:at] = rng.choices(POOL, WEIGHTS)[0][1]
        elif lines and move == "delete":
            del lines[rng.randrange(len(lines))]
        elif lines and move == "duplicate":
            at = rng.randrange(len(lines))
            lines.insert(rng.randint(0, len(lines)), lines[at])
        elif lines:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _outcome(read, text):
    try:
        basis, frac, labels = read(text)
    except Exception as exc:  # noqa: BLE001 - the reference decides which errors are right
        return type(exc), str(exc)
    return basis.tobytes(), frac.shape, frac.tobytes(), labels


def _class(outcome):
    if isinstance(outcome[0], bytes):
        return "parsed"
    return next((name for name, start in OUTCOMES.items()
                 if start is not None and outcome[1].startswith(start)), outcome)


@pytest.mark.parametrize("fixture", ["cubic.cif", "hexagonal.cif"])
def test_one_pass_reader_matches_the_two_pass_reference(fixture):
    lines = (FIXTURES / fixture).read_text().splitlines()
    rng = random.Random(fixture)
    seen = Counter()
    for _ in range(2500):
        text = _mutate(rng, lines)
        expected = _outcome(legacy_io._cif_fields, text)
        assert _outcome(_cif_fields, text) == expected, text
        seen[_class(expected)] += 1
    assert set(seen) == set(OUTCOMES) and min(seen.values()) >= 20, seen
