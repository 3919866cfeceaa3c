"""Reference copy of the two-pass CIF-lite reader, kept verbatim as an
oracle: ``io._cif_fields`` reads a text in one pass and must return the same
basis, fractional motif and labels, or raise the same error, on any text.
"""

from __future__ import annotations

import numpy as np

from geoinv.io import _CELL_TAGS, _P1_NAMES, _SYMOP_NUMBERED, _SYMOP_XYZ, _cif_number
from geoinv.periodic import cell_to_basis


def _cif_fields(text):
    """The basis, fractional motif and labels of a CIF-lite text."""
    lines, values = [], {}
    blocks = sym_ops = 0
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        lines.append(ln)
        if ln.startswith("_"):
            parts = ln.split(None, 1)
            if len(parts) == 2:
                values[parts[0]] = parts[1].strip()
        elif ln[:5].lower() == "data_":
            blocks += 1
        # a symmetry operation, numbered or not, has exactly two commas
        elif ln.count(",") == 2 and (_SYMOP_NUMBERED.match(ln) or _SYMOP_XYZ.match(ln.lower())):
            sym_ops += 1
    if blocks > 1:
        raise ValueError("more than one data_ block: one crystal per file is supported")

    for tag in _CELL_TAGS:
        if tag not in values:
            raise ValueError(f"missing CIF tag {tag}")
    basis = cell_to_basis(*(_cif_number(values[tag]) for tag in _CELL_TAGS))

    for tag in ("_symmetry_space_group_name_H-M", "_space_group_name_H-M_alt",
                "_symmetry_Int_Tables_number", "_space_group_IT_number"):
        if tag in values and values[tag].strip().lower() not in _P1_NAMES:
            raise ValueError(f"only P1 CIFs are supported ({values[tag]})")

    # locate the atom_site loop
    frac = []
    labels = []
    i = 0
    found = False
    while i < len(lines):
        if lines[i].lower() != "loop_":
            i += 1
            continue
        headers = []
        i += 1
        while i < len(lines) and lines[i].startswith("_"):
            headers.append(lines[i].split()[0])
            i += 1
        if not any(h.startswith("_atom_site") for h in headers):
            continue
        if all(h.startswith("_atom_site_aniso") for h in headers):
            continue
        if any(h.startswith("_space_group_symop") or h.startswith("_symmetry_equiv")
               for h in headers):
            continue
        try:
            ix = headers.index("_atom_site_fract_x")
            iy = headers.index("_atom_site_fract_y")
            iz = headers.index("_atom_site_fract_z")
        except ValueError:
            raise ValueError("atom_site loop lacks fractional coordinates")
        il = headers.index("_atom_site_label") if "_atom_site_label" in headers else None
        io_ = (
            headers.index("_atom_site_occupancy")
            if "_atom_site_occupancy" in headers
            else None
        )
        while i < len(lines) and not lines[i].startswith(("_", "loop_", "data_")):
            row = lines[i].split()
            if len(row) < len(headers):
                raise ValueError("short atom_site row")
            if io_ is not None and abs(_cif_number(row[io_]) - 1.0) > 1e-9:
                raise ValueError("occupancy != 1 is not supported")
            frac.append([_cif_number(row[ix]), _cif_number(row[iy]), _cif_number(row[iz])])
            labels.append(row[il] if il is not None else f"X{len(frac)}")
            i += 1
        found = True
    if not found or not frac:
        raise ValueError("no atom_site loop found")

    if sym_ops > 1:
        raise ValueError("only P1 CIFs are supported (symmetry operations found)")
    return basis, np.array(frac), labels
