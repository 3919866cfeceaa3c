"""File formats: CIF-lite (P1 only), XYZ point clouds, numeric text tables
(sequences, BRIs and backbone TSV), and the CSV/JSON serializers shared by
the command-line interface.

Many CIF-lite texts (a directory) are parsed one by one and then checked as
stacks of sets, one stack per motif size; one text is a stack of one.
"""

from __future__ import annotations

import json
import re
import warnings

import numpy as np

from .clouds import PointCloud
from .numcore import _rows
from .periodic import PeriodicSet, _sets, cell_to_basis

#: numbers are printed with this many significant digits
SIG_DIGITS = 12

_CELL_TAGS = (
    "_cell_length_a",
    "_cell_length_b",
    "_cell_length_c",
    "_cell_angle_alpha",
    "_cell_angle_beta",
    "_cell_angle_gamma",
)

_P1_NAMES = {"p1", "p 1", "'p 1'", '"p 1"', "1"}

_UNCERTAINTY = re.compile(r"\(\d+\)$")
_SYMOP_NUMBERED = re.compile(r"^\d+\s")
_SYMOP_XYZ = re.compile(r"^['\"]?[xyz+\-\d/ ]+,")


def _cif_number(token):
    """Parse a CIF numeric token, dropping a trailing standard uncertainty."""
    try:
        return float(token)
    except ValueError:
        return float(_UNCERTAINTY.sub("", token))


def parse_cif_lite(text):
    """Parse a minimal P1 CIF into a PeriodicSet.

    Requires one data block with the six cell tags and an ``_atom_site``
    loop with fractional coordinates; ``_atom_site_aniso`` loops are skipped.
    Symmetry settings other than P1, occupancies other than 1, a second
    data block and angles outside (0, 180) degrees are rejected.  The set is
    checked as a stack of one; ``_parse_cifs`` checks many texts as stacks.
    """
    return PeriodicSet.from_fractional(*_cif_fields(text))


def _parse_cifs(texts, names):
    """``parse_cif_lite`` of many texts: each is parsed, then the sets are
    checked a group of equal shapes at a time.  An error is prefixed with
    the name of the text at fault."""
    fields = []
    for text, name in zip(texts, names):
        try:
            fields.append(_cif_fields(text))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return _sets(*zip(*fields), names, fractional=True)


def _cif_fields(text):
    """The basis, fractional motif and labels of a CIF-lite text: one pass records
    the tags, blocks, symmetry operations and atom_site loops, then checks them."""
    values, loops = {}, []
    blocks = sym_ops = 0
    headers = rows = None  # of the loop being read: its headers, then an atom_site loop's rows
    # the closing loop_ ends the headers or rows of the last loop
    for ln in text.splitlines() + ["loop_"]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("_"):
            parts = ln.split(None, 1)
            if len(parts) == 2:
                values[parts[0]] = parts[1].strip()
        elif ln[:5].lower() == "data_":
            blocks += 1
        # a symmetry operation, numbered or not, has exactly two commas
        elif ln.count(",") == 2 and (_SYMOP_NUMBERED.match(ln) or _SYMOP_XYZ.match(ln.lower())):
            sym_ops += 1
        if headers is not None:
            if ln.startswith("_"):
                headers.append(ln.split()[0])
                continue
            # an atom_site loop, unless aniso-only or symop, reads rows from this line on
            if (any(h.startswith("_atom_site") for h in headers)
                    and not all(h.startswith("_atom_site_aniso") for h in headers)
                    and not any(h.startswith(("_space_group_symop", "_symmetry_equiv"))
                                for h in headers)):
                rows = []
                loops.append((headers, rows))
            headers = None
        if rows is not None:
            if not ln.startswith(("_", "loop_", "data_")):
                rows.append(ln.split())
                continue
            rows = None
        if ln.lower() == "loop_":
            headers = []
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

    frac, labels = [], []
    for headers, rows in loops:
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
        for row in rows:
            if len(row) < len(headers):
                raise ValueError("short atom_site row")
            if io_ is not None and abs(_cif_number(row[io_]) - 1.0) > 1e-9:
                raise ValueError("occupancy != 1 is not supported")
            frac.append([_cif_number(row[ix]), _cif_number(row[iy]), _cif_number(row[iz])])
            labels.append(row[il] if il is not None else f"X{len(frac)}")
    if not frac:
        raise ValueError("no atom_site loop found")

    if sym_ops > 1:
        raise ValueError("only P1 CIFs are supported (symmetry operations found)")
    return basis, np.array(frac), labels


def write_cif_lite(S, name="geoinv"):
    """Serialize a 3-periodic set as a P1 CIF-lite string."""
    if S.rank != 3 or S.dim != 3:
        raise ValueError("CIF output requires a 3-periodic set in R^3")
    basis = S.basis
    a, b, c = (float(np.linalg.norm(v)) for v in basis)

    def angle(u, v):
        return float(
            np.degrees(np.arccos(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1)))
        )

    al, be, ga = angle(basis[1], basis[2]), angle(basis[0], basis[2]), angle(basis[0], basis[1])
    frac = S.motif @ np.linalg.inv(basis)
    labels = S.labels or [f"X{i + 1}" for i in range(len(frac))]
    out = [f"data_{name}"]
    for tag, val in zip(_CELL_TAGS, (a, b, c, al, be, ga)):
        out.append(f"{tag} {fmt(val)}")
    out.append("_symmetry_space_group_name_H-M 'P 1'")
    out += ["loop_", "_atom_site_label", "_atom_site_fract_x",
            "_atom_site_fract_y", "_atom_site_fract_z"]
    for lab, f in zip(labels, frac):
        out.append(f"{lab} {fmt(f[0])} {fmt(f[1])} {fmt(f[2])}")
    return "\n".join(out) + "\n"


def parse_xyz(text):
    """Parse an XYZ file; rows may carry any fixed number of coordinates."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("truncated XYZ file")
    try:
        count = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ValueError("bad XYZ header")
    rows = [ln.split() for ln in lines[2:] if ln.strip()]
    if len(rows) != count:
        raise ValueError(f"XYZ header says {count} rows, found {len(rows)}")
    if not rows:
        raise ValueError("XYZ file has no points")
    try:
        coords = [[float(v) for v in r[1:]] for r in rows]
    except ValueError:
        raise ValueError("non-numeric XYZ coordinate")
    if len({len(c) for c in coords}) > 1:
        raise ValueError("inconsistent XYZ coordinate counts")
    if not coords[0]:
        raise ValueError("XYZ rows have no coordinates")
    return PointCloud(np.array(coords), [r[0] for r in rows])


def _read_table(path, what, delimiter=None, width=None):
    """The rows of a numeric text table, read as ``_rows(rows, what, width)``
    would read them; a ValueError, an empty file's too, names the file."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(path, delimiter=delimiter, ndmin=2)
    try:
        return _rows(rows, what, width)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


def write_xyz(C, comment=""):
    """Serialize a point cloud as an XYZ string."""
    labels = C.labels or ["X"] * len(C.points)
    out = [str(len(C.points)), comment]
    for lab, p in zip(labels, C.points):
        out.append(lab + " " + " ".join(fmt(v) for v in p))
    return "\n".join(out) + "\n"


def fmt(x):
    """Render a float with SIG_DIGITS significant digits ('.' decimal)."""
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return f"{v:.{SIG_DIGITS}g}"


def to_csv(rows, header=None):
    """Render rows of numbers/strings as deterministic CSV text."""
    out = []
    if header:
        out.append(",".join(header))
    for row in rows:
        out.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    return "\n".join(out) + "\n"


def to_json(obj):
    """Render a structure as JSON with floats rounded to SIG_DIGITS."""

    def clean(v):
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, (np.ndarray,)):
            return clean(v.tolist())
        if isinstance(v, (float, np.floating)):
            return float(fmt(v))
        if isinstance(v, (int, np.integer)):
            return int(v)
        return v

    return json.dumps(clean(obj), indent=2) + "\n"
