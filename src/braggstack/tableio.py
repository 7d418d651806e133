"""CSV serialization of result tables.

17 significant digits, '\n' line endings and sorted `# key = value` metadata
lines make the files byte-stable across runs and round-trip exact.

format_rows formats the rows, and svgplot's polyline points, in blocks of
BLOCK_ROWS.  More than one block on more than one usable CPU goes to a fork
pool with one worker per CPU (no setting), unless fork is missing or this is a
daemon process, which may not have children; the blocks come back in order, so
the bytes are those of the serial path.
"""

from __future__ import annotations

import re
from contextlib import closing, nullcontext
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .experiments import SpectrumTable, usable_cpus

SPECTRUM_COLUMNS = ("delta_over_gamma", "R", "T", "A", "phi_rad")
BLOCK_ROWS = 1 << 15  # rows per formatted text block (~2 MB of text)
_HEADER = re.compile(r"^([^#\n].*)\n", re.M)  # the first row not blank or "#"
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))
_BLANK_CELL = r"(?m)(?:^|,)[ \t]+(?:,|$)"  # numpy reads such a cell as -1


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _format_block(template: str, block) -> str:
    # one % over the block's cells in row order: the text of template % row
    # row after row, without a call and a string per row
    cells = chain.from_iterable(zip(*[a.tolist() for a in block]))
    return (template * len(block[0])) % tuple(cells)


def format_rows(template: str, arrays):
    """template % row for each row of the equal-length 1-d arrays, in text
    blocks of BLOCK_ROWS rows, in order (see the module docstring).

    Rows are formatted over the Python numbers of tolist(), so a "%.17g"
    cell gives the bytes of format_float(float(v)).
    """
    rows = BLOCK_ROWS  # read per call, so that a patched value takes effect
    blocks = [[a[i:i + rows] for a in arrays]
              for i in range(0, len(arrays[0]), rows)]
    workers, pool = min(usable_cpus(), len(blocks)), None
    if workers > 1:
        import multiprocessing  # lazily: importing the CLI does not load it
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            pool = multiprocessing.get_context("fork").Pool(workers)
    with pool or nullcontext():
        fmt = partial(_format_block, template)
        yield from (pool.imap if pool else map)(fmt, blocks)


def _blocks(columns: dict, metadata: dict | None):
    """The CSV text as an iterator of blocks: the header, then the rows
    from format_rows.

    The columns are checked before the iterator is returned, so a bad table
    writes nothing.  A complex column is refused: float() would drop its
    imaginary part.
    """
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[name]) for name in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("columns must have equal length")
    for name, a in zip(names, arrays):
        if a.ndim != 1:
            raise ValueError(f"column {name!r} is {a.ndim}-d; columns must be 1-d")
        if np.iscomplexobj(a):
            raise TypeError(f"column {name!r} is complex; write its real "
                            f"and imaginary parts as two columns")
    head = [f"# {key} = {metadata[key]}\n" for key in sorted(metadata or {})]
    head.append(",".join(names) + "\n")
    row = ",".join(["%.17g"] * len(arrays)) + "\n"

    def gen():
        yield "".join(head)
        yield from format_rows(row, arrays)

    return gen()


def render_csv(columns: dict, metadata: dict | None = None) -> str:
    """Serialize named columns plus metadata comments to CSV text."""
    return "".join(_blocks(columns, metadata))


def write_blocks(path, blocks) -> None:
    """Write an iterable of text blocks to a file, one block at a time."""
    try:
        with open(path, "wb") as f:
            for block in blocks:
                f.write(block.encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """render_csv(columns, metadata) to a file, written block by block."""
    with closing(_blocks(columns, metadata)) as blocks:  # a failed write ends the pool
        write_blocks(path, blocks)


def _parses(text: str, cells: int) -> bool:
    if re.search(_BLANK_CELL, text):
        return False
    try:
        return np.fromstring(text, sep=",").size == cells
    except ValueError:
        return False


def _first_bad_cell(body: str, names, first: int) -> str | None:
    """The line, column and text of the first cell numpy reads as no number."""
    for line, raw in enumerate(body.split("\n")[:-1], first):  # body ends in "\n"
        if _parses(raw, len(names)):
            continue
        for column, (name, cell) in enumerate(zip(names, raw.split(",")), 1):
            if not _parses(cell, 1):
                return f"line {line}, column {column} ({name}): {cell!r} is not a number"
    return None


def read_csv(path):
    """Read back (columns, metadata) from a CSV written by write_csv.

    The rows after the header are parsed by one numpy call, once every row
    is seen to have one cell per column.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not text.endswith("\n"):
        text += "\n"  # the last row ends as the others do
    header = _HEADER.search(text)
    if header is None:
        raise ValueError(f"{path}: no header row")
    metadata = {}
    for raw in text[:header.start()].splitlines():
        if "=" in raw:
            key, value = raw[1:].split("=", 1)
            metadata[key.strip()] = value.strip()
    names, body = header.group(1).split(","), text[header.end():]
    first = text.count("\n", 0, header.end()) + 1  # the line number of body's first row
    seps = body.encode().translate(None, _NOT_SEPARATORS)
    row = b"," * (len(names) - 1)
    if seps != (row + b"\n") * seps.count(b"\n"):
        line, cells = next((i, s.count(b",") + 1) for i, s in enumerate(
            seps.split(b"\n"), first) if s != row)
        raise ValueError(f"{path}: line {line} has {cells} cells, not {len(names)}")
    try:
        if (" " in body or "\t" in body) and re.search(_BLANK_CELL, body):
            raise ValueError("a cell holds only blanks")
        data = np.fromstring(body.replace("\n", ","), sep=",").reshape(-1, len(names))
    except ValueError as exc:
        raise ValueError(f"{path}: {_first_bad_cell(body, names, first) or exc}") from None
    columns = {name: data[:, i].copy() for i, name in enumerate(names)}
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
