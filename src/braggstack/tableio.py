"""CSV serialization of result tables.

17 significant digits, '\n' line endings and sorted `# key = value` metadata
lines make the files byte-stable across runs and round-trip exact.

The CSV rows are formatted by numpy, BLOCK_ROWS rows at a time, to the bytes
of format_float(float(v)) in every cell.  Each cell's 17 digits come from an
error-free double-double product (Dekker, Numer. Math. 18, 224 (1971)) with a
table of powers of ten; the digits and their decimal exponent are correctly
rounded (Steele & White, PLDI 1990).  A block holding a cell the tables
cannot decide goes through one Python % instead: nan, inf, a scaled
fraction within _TIE of 1/2 (2^-25 = 2.98023223876953125e-08 is an exact
tie at the 17th digit), or a product outside the 17-digit range, where
floor(log10) missed the decade.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from .experiments import SpectrumTable

SPECTRUM_COLUMNS = ("delta_over_gamma", "R", "T", "A", "phi_rad")
BLOCK_ROWS = 1 << 12  # rows per formatted text block (~250 KB of CSV text)
_HEADER = re.compile(r"^([^#\n].*)\n", re.M)  # the first row not blank or "#"
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))
_BLANK_CELL = r"(?m)(?:^|,)[ \t]+(?:,|$)"  # numpy reads such a cell as -1
_K_MIN, _K_MAX = -293, 341  # the powers 10^k the digits need: k = 16 - X
_TIE = 2.0 ** -30  # far above the product's error, ~2^-46 at 10^17
# A cell's slot: six little-endian uint64 words of ASCII.  Byte 0 is the sign,
# 1-5 the "0.000" of a fixed form below 1, digit i sits at 6 + 2i with a
# candidate point after it, 40-45 are "e+-" and three exponent digits, and 47
# is the separator.  A (sign, form, digits) key selects the bytes a cell keeps;
# the forms are the fixed ones of decimal exponent -4..16 and the four
# exponent ones (exponent sign, two or three exponent digits).
_FORMS = 21 + 4
_KEYS = 2 * _FORMS * 17


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), "<u8")


@lru_cache(maxsize=None)
def _tables():
    """The formatter's tables, built on first use from exact integers.

    powers, per k: 10^k = (hi + lo) * 2^two with hi in [1, 2], each rounded
    to nearest from the exact fraction, and hi's Dekker split (hh, hl).
    text: per k, 17 times the form of decimal exponent x = 16 - k and the
    word of "e+-" and the digits of |x|; the first word of a slot per first
    digit; the four digits of 0..9999, each followed by a point, as one word,
    and their trailing zero counts; the keep-mask of every key, as words.
    """
    hi, lo, two, forms = [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        x = 16 - k
        form = x + 4 if -4 <= x < 17 else 21 + 2 * (x < 0) + (abs(x) >= 100)
        forms.append(17 * form)
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:
            num, b = num << 1, b - 1
        h = num / den  # int / int rounds correctly
        hi.append(h)
        lo.append((num * 2 ** 52 - int(h * 2 ** 52) * den) / (den << 52))
        two.append(b)
    hi = np.array(hi)
    c = hi * 134217729.0  # 2^27 + 1
    hh = c - (c - hi)
    expo = _words("".join(f"e+-{abs(16 - k):03d} \0"
                          for k in range(_K_MIN, _K_MAX + 1)))
    leads = _words("".join(f"-0.000{i}." for i in range(10)))
    i = np.arange(10000)
    dotted = np.full((10000, 8), ord("."), np.uint8)
    dotted[:, ::2] = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10],
                              axis=1) + ord("0")
    zeros = sum((i % 10 ** p == 0).astype(int) for p in range(1, 5))
    masks = np.zeros((_KEYS, 48), bool)
    digit = np.arange(6, 39, 2)
    for key in range(_KEYS):
        m = masks[key]
        neg, form, nd = key // (17 * _FORMS), key // 17 % _FORMS, key % 17 + 1
        m[0], m[47] = neg, True
        if form < 4:  # 0.000ddd: "0." and 3 - form zeros
            m[1:6 - form] = True
            m[digit[:nd]] = True
        elif form < 21:  # fixed: every integer digit, then a point if needed
            x = form - 4
            m[digit[:max(nd, x + 1)]] = True
            m[7 + 2 * x] = nd > x + 1
        else:
            m[digit[:nd]] = True
            m[7] = nd > 1
            m[[40, 42 if form >= 23 else 41, 44, 45]] = True
            m[43] = form in (22, 24)
    return ((hi, np.array(lo), np.array(two), hh, hi - hh),
            (np.array(forms), expo, leads, dotted.view("<u8").ravel(), zeros,
             masks.view("<u8")))


def _scaled(a, x, powers):
    """a * 10^(16 - x) as a double-double (h, l), |l| <= ulp(h) / 2, and
    where that lies outside [10^16 - _TIE, 10^17 + _TIE).  Within _TIE of
    either end both exponents give the same text, so the product's error
    there decides nothing."""
    hi, lo, two, hh, hl = (table.take(16 - _K_MIN - x) for table in powers)
    m, e = np.frexp(a)
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    p = m * hi
    s = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * lo
    h = p + s
    s -= h - p
    e += two
    h, l = np.ldexp(h, e), np.ldexp(s, e)
    return h, l, ((h - 1e17) + l >= _TIE) | ((h - 1e16) + l < -_TIE)


def _digits(a, powers):
    """For finite positive a: the 17-digit integer d, the decimal exponent x
    of its first digit, and where they are undecided: the rounding is too
    close to call, or floor(log10) missed the decade near a power of ten."""
    x = np.floor(np.log10(a)).astype(np.int64)
    h, l, outside = _scaled(a, x, powers)
    whole = np.floor(l)
    l -= whole
    d = h.astype(np.int64) + whole.astype(np.int64) + (l > 0.5)
    up = d == 10 ** 17  # 99999999999999999.5 and above: one digit more
    d[up] = 10 ** 16
    x[up] += 1
    return d, x, (np.abs(l - 0.5) < _TIE) | outside


def _divmod(n, unit):
    q = n // unit
    return q, n - q * unit  # several times faster than numpy's floored %


def _format_block(arrays) -> str:
    """The CSV rows of equal-length 1-d columns of kinds b, i, u and f."""
    powers, (forms, expo, leads, dotted, zeros, masks) = _tables()
    n, cols = len(arrays[0]), len(arrays)
    v = np.empty((n, cols))
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN stays NaN
        for j, column in enumerate(arrays):
            v[:, j] = column
    v = v.ravel()
    a = np.abs(v)
    bad = ~np.isfinite(a)
    zero = a == 0.0
    a[bad | zero] = 1.0
    d, x, undecided = _digits(a, powers)
    if bad.any() or undecided.any():  # rare: one Python % formats the block
        return (",".join(["%.17g"] * cols) + "\n") * n % tuple(v.tolist())
    d[zero], x[zero] = 0, 0
    high, low = _divmod(d, 10 ** 8)
    top, high = _divmod(high, 10 ** 8)
    quads = [*_divmod(high, 10 ** 4), *_divmod(low, 10 ** 4)]
    trailing = np.full(d.size, 16)
    for i, q in enumerate(quads):
        trailing = np.where(q != 0, 12 - 4 * i + zeros.take(q), trailing)
    trailing[zero] = 16
    k = 16 - _K_MIN - x  # the table row of decimal exponent x
    key = forms.take(k) + np.signbit(v) * (17 * _FORMS) + 16 - trailing
    words = np.empty((n, cols, 6), "<u8")
    w = words.reshape(n * cols, 6)
    w[:, 0] = leads.take(top)
    for i, q in enumerate(quads):
        w[:, 1 + i] = dotted.take(q)
    seps = np.array([ord(",") << 56] * (cols - 1) + [ord("\n") << 56], "<u8")
    np.add(expo.take(k).reshape(n, cols), seps, out=words[:, :, 5])
    keep = np.take(masks, key, axis=0).view(bool).ravel()
    return np.compress(keep, words.view(np.uint8).ravel()).tobytes().decode("ascii")


def _blocks(columns: dict, metadata: dict | None):
    """The CSV text as an iterator of blocks: the header, then the rows.

    The columns are checked before the iterator is returned, so a bad table
    writes nothing.  A complex column is refused: float() would drop its
    imaginary part.  So is every column that is not bool, integer or real
    float: strings, objects and datetimes have no float cells.
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
        if a.dtype.kind not in "biuf":
            raise TypeError(f"column {name!r} has dtype {a.dtype}; columns "
                            f"must be bool, integer or real float")
    head = [f"# {key} = {metadata[key]}\n" for key in sorted(metadata or {})]
    head.append(",".join(names) + "\n")

    def gen():
        yield "".join(head)
        rows = BLOCK_ROWS  # read here, so that a patched value takes effect
        for i in range(0, length, rows):
            yield _format_block([a[i:i + rows] for a in arrays])

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
    write_blocks(path, _blocks(columns, metadata))


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
