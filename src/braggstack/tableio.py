"""CSV serialization of result tables.

17 significant digits, '\n' line endings and sorted `# key = value` metadata
lines make the files byte-stable across runs and round-trip exact; volatile
metadata (timestamps) is kept in memory but never written.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .experiments import SpectrumTable

SPECTRUM_COLUMNS = ("delta_over_gamma", "R", "T", "A", "phi_rad")
VOLATILE_KEYS = frozenset({"created"})
BLOCK_ROWS = 1 << 15  # rows per formatted text block (~2 MB of text)


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _blocks(columns: dict, metadata: dict | None):
    """The CSV text as an iterator of blocks: the header, then BLOCK_ROWS
    rows at a time.

    The columns are checked before the iterator is returned, so a bad table
    writes nothing.  Each row is one fused "%.17g,...\n" format over the
    Python numbers of tolist(), which gives the bytes of
    format_float(float(v)) per cell.  A complex column is refused: float()
    would drop its imaginary part.
    """
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("columns must have equal length")
    for name, a in zip(names, arrays):
        if np.iscomplexobj(a):
            raise TypeError(f"column {name!r} is complex; write its real "
                            f"and imaginary parts as two columns")
    head = [f"# {key} = {metadata[key]}\n" for key in sorted(metadata or {})
            if key not in VOLATILE_KEYS]
    head.append(",".join(names) + "\n")
    row = ",".join(["%.17g"] * len(arrays)) + "\n"

    def gen():
        yield "".join(head)
        for i in range(0, length, BLOCK_ROWS):
            cells = zip(*[a[i:i + BLOCK_ROWS].tolist() for a in arrays])
            yield "".join(map(row.__mod__, cells))

    return gen()


def render_csv(columns: dict, metadata: dict | None = None) -> str:
    """Serialize named columns plus metadata comments to CSV text."""
    return "".join(_blocks(columns, metadata))


def write_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """render_csv(columns, metadata) to a file, written block by block."""
    blocks = _blocks(columns, metadata)
    try:
        with open(path, "wb") as f:
            for block in blocks:
                f.write(block.encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_csv(path):
    """Read back (columns, metadata) from a CSV written by write_csv."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    metadata = {}
    header = None
    rows = []
    for raw in text.splitlines():
        if not raw:
            continue
        if raw.startswith("#"):
            body = raw[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                metadata[key.strip()] = value.strip()
            continue
        if header is None:
            header = raw.split(",")
            continue
        rows.append([float(v) for v in raw.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header row")
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    columns = {name: data[:, i].copy() for i, name in enumerate(header)}
    return columns, metadata


def spectrum_columns(table: SpectrumTable) -> dict:
    """The canonical delta_over_gamma,R,T,A,phi_rad columns of a table."""
    return dict(zip(SPECTRUM_COLUMNS, (table.delta_over_gamma, table.R,
                                       table.T, table.A, table.phi)))


def write_spectrum_csv(table: SpectrumTable, path) -> None:
    """Emit the canonical delta_over_gamma,R,T,A,phi_rad table."""
    write_csv(path, spectrum_columns(table), table.metadata)


def read_spectrum_csv(path) -> SpectrumTable:
    columns, metadata = read_csv(path)
    if tuple(columns) != SPECTRUM_COLUMNS:
        raise ValueError(f"{path}: expected columns {SPECTRUM_COLUMNS}, "
                         f"got {tuple(columns)}")
    return SpectrumTable(columns["delta_over_gamma"], columns["R"],
                         columns["T"], columns["A"], columns["phi_rad"],
                         metadata)
