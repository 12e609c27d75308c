"""Star catalogs and their appearance in a boosted frame.

The boost axis is fixed to +x3, the north celestial pole (dec = +90), so
the sphere action is the pure dilation z -> e^{-chi} z; boosts along other
axes are reachable by pre-rotating the catalog.  The photometric model is
deliberately simple: temperature scales with the Doppler factor D
(blackbody peak) and magnitudes shift by -10 log10 D, the bolometric D^4
beaming expressed in the 2.5-log magnitude convention.

Catalogs are columns, one float64 array per field, from parse to render.
The names are columns too: one UTF-8 buffer (surrogatepass, so a lone
surrogate survives) and int64 offsets into it, a :class:`Names` that
builds a name's ``str`` only when it is read.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO

import numpy as np

from . import _text
from .celestial import _exp_rapidity
from .errors import ParseError, RangeError
from .minkowski import Rapidity
from .sphere import _NORM_SKIP

_HEADER = ["name", "ra_deg", "dec_deg", "vmag", "temp_k"]
_DEFAULT_TEMP_K = 5778.0
_READ = 1 << 18   # characters of catalog text read and parsed together
_NOT_UTF8 = re.compile("[\udc80-\udcff]")   # a byte that is not UTF-8, as surrogateescape reads it
# Bytes that str.strip may remove at a name's ends: ASCII whitespace, and any
# non-ASCII byte, whose character the name's own decode tells.
_STRIP_EDGE = np.array([chr(b).isspace() or b >= 0x80 for b in range(256)])


class Names(Sequence[str]):
    """A read-only sequence of names held as one UTF-8 buffer and int64 offsets.

    Name i is ``utf8[offsets[i]:offsets[i + 1]]``, encoded with surrogatepass;
    its ``str`` is decoded on access.  A slice with step 1 shares the buffer.
    A Names equals another Names, or a tuple, with the same names in order.
    """

    __slots__ = ("utf8", "offsets")

    def __init__(self, utf8: bytes, offsets: np.ndarray):
        offsets.setflags(write=False)
        self.utf8, self.offsets = utf8, offsets

    @classmethod
    def from_strings(cls, names: Iterable[str]) -> Names:
        """The Names of the strings in order; TypeError for one that is not a str."""
        encoded = [str.encode(name, "utf-8", "surrogatepass") for name in names]
        return cls(b"".join(encoded), np.cumsum([0, *map(len, encoded)], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step == 1:
                return Names(self.utf8, self.offsets[start:max(start, stop) + 1])
            return Names.from_strings([self[j] for j in range(start, stop, step)])
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("name index out of range")
        i %= len(self)
        return self.utf8[self.offsets[i]:self.offsets[i + 1]].decode("utf-8", "surrogatepass")

    def __iter__(self):
        utf8, at = self.utf8, self.offsets.tolist()
        return (utf8[a:b].decode("utf-8", "surrogatepass") for a, b in zip(at, at[1:]))

    def __eq__(self, other):
        if isinstance(other, (Names, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Names({list(self)!r})"


def _joined(pieces: list[Names]) -> Names:
    """The names of pieces in order, each piece's offsets starting at 0."""
    shifts = np.cumsum([0] + [len(piece.utf8) for piece in pieces])
    return Names(b"".join(piece.utf8 for piece in pieces),
                 np.concatenate([[0], *(piece.offsets[1:] + shift
                                        for piece, shift in zip(pieces, shifts))]))


@dataclass(frozen=True, eq=False)
class Catalog:
    """Star catalog as columns: names, angles in degrees, temperature in kelvin.

    Construction copies the columns into float64 arrays, and the names into a
    :class:`Names` unless they are one, and raises :class:`RangeError` naming
    the first star with a value out of range.
    """

    names: Names
    ra_deg: np.ndarray
    dec_deg: np.ndarray
    vmag: np.ndarray
    temp_k: np.ndarray

    def __post_init__(self):
        if not isinstance(self.names, Names):
            object.__setattr__(self, "names", Names.from_strings(self.names))
        for field in _HEADER[1:]:
            col = np.array(getattr(self, field), dtype=float)
            if col.shape != (len(self.names),):
                raise RangeError(f"{field} has shape {col.shape}, "
                                 f"expected ({len(self.names)},)")
            col.setflags(write=False)
            object.__setattr__(self, field, col)
        _check_ranges((self.ra_deg, self.dec_deg, self.vmag, self.temp_k),
                      lambda row: f"star {row} ({self.names[row]})")

    @classmethod
    def _checked(cls, names: Names, columns: list[np.ndarray]) -> Catalog:
        """The catalog of names and four float64 columns already range-checked,
        taken as they are: no copy, no second check."""
        catalog = object.__new__(cls)
        object.__setattr__(catalog, "names", names)
        for field, col in zip(_HEADER[1:], columns):
            col.setflags(write=False)
            object.__setattr__(catalog, field, col)
        return catalog

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True, eq=False)
class BoostedCatalog:
    """A catalog seen from the boosted frame, as columns in catalog order.

    ``z1``, ``z2`` hold each star's apparent direction as a normalized
    homogeneous pair (see :class:`~lorentzsky.sphere.SpherePoint`);
    ``doppler`` is the frequency ratio D, ``temp_k`` the shifted temperature
    D T and ``vmag`` the shifted magnitude m - 10 log10 D.
    """

    names: Names
    z1: np.ndarray
    z2: np.ndarray
    doppler: np.ndarray
    temp_k: np.ndarray
    vmag: np.ndarray

    def __len__(self) -> int:
        return len(self.names)


def _check_ranges(columns, where) -> None:
    """RangeError for the first row with a value out of range, named by where(row).

    A row failing several checks reports the first in this order.
    """
    ra, dec, vmag, temp = columns
    checks = [(~np.isfinite(col), col, f"{name} must be finite, got {{!r}}")
              for name, col in zip(_HEADER[1:], columns)]
    checks += [(~((ra >= 0.0) & (ra < 360.0)), ra, "ra_deg = {} outside [0, 360)"),
               (~((dec >= -90.0) & (dec <= 90.0)), dec, "dec_deg = {} outside [-90, 90]"),
               (~(temp > 0.0), temp, "temp_k = {} must be positive")]
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        row = int(bad.argmax())
        reason = next(text.format(float(col[row])) for mask, col, text in checks if mask[row])
        raise RangeError(f"{where(row)}: {reason}")


def load_catalog(source: str | Path | IO[str]) -> Catalog:
    """Parse a CSV catalog with header name,ra_deg,dec_deg,vmag,temp_k.

    The temp_k column may be omitted (default 5778).  Malformed rows raise
    :class:`ParseError` with the offending line number; out-of-range values
    raise :class:`RangeError`.  Either error names the first bad line.  A byte
    that is not UTF-8, in a file given by path or as U+DC80 + byte in a stream
    (errors="surrogateescape"), raises ParseError naming its line; a stream
    whose decoder raises lets its UnicodeDecodeError out.

    The body is read in pieces of _READ characters, then the rest of that
    line; plain pieces (see :func:`_plain_piece`) are parsed from their UTF-8
    bytes.  The per-row csv loop :func:`_parse_rows`, the reference parser
    and the error path, parses everything from the first other piece on, so
    a catalog with quoted names, CR line endings or blank lines is parsed by
    it from the first such piece.  A stream must end its lines at "\n"
    (newline None, "" or "\n"), as csv.reader needs.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            return load_catalog(fh)
    reader = csv.reader(_numbered(source, 0))
    offset = 0   # physical lines read before reader's first
    names, blocks = [], []   # each piece's Names and (4, rows) values, range-checked
    try:
        if (header := next(reader, None)) is None:
            raise ParseError(1, "missing header row")
        header = [h.strip() for h in header]
        if header not in (_HEADER, _HEADER[:4]):
            raise ParseError(1, f"expected header {','.join(_HEADER)} "
                                f"(temp_k optional), got {','.join(header)}")
        offset = reader.line_num
        while text := source.read(_READ):
            text += source.readline()   # so the piece ends at a line end, or at the end
            piece = _plain_piece(text, len(header), offset)
            if piece is None:   # the csv loop parses this piece and the rest of source
                # The lines iterating source gives: one that reports the newlines it
                # reads (newline None or "") ends lines at "\r" and "\r\n" too.
                newline = "" if getattr(source, "newlines", None) else "\n"
                lines = chain(io.StringIO(text, newline=newline), source)
                reader = csv.reader(_numbered(lines, offset))
                piece = _parse_rows(reader, offset, len(header))
            names.append(piece[0])
            blocks.append(piece[1])
            offset += len(piece[0])
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise ParseError(offset + reader.line_num, str(exc)) from None
    # One array per column, not the rows of one (4, stars) block: freeing a 32 MB
    # block (1M stars) after transform_catalog raises glibc's dynamic mmap
    # threshold to 32 MB, which keeps render's growing SVG buffer on the heap,
    # where it is copied as it grows (+40 MB peak RSS measured at 1M stars).
    columns = [np.concatenate([np.empty(0)] + [block[k] for block in blocks]) for k in range(4)]
    return Catalog._checked(_joined(names), columns)


def _plain_piece(text: str, n_cols: int, offset: int) -> tuple[Names, np.ndarray] | None:
    """Names and range-checked (4, lines) values of plain lines after line offset, else None.

    Plain lines need no csv rule: no quote, CR, NUL or lone surrogate (such as
    a byte that is not UTF-8), n_cols - 1 commas and a newline each (so no
    blank line; the last line may lack its newline), none over the csv field
    limit, a name and numbers float() reads.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    try:
        data = np.frombuffer((text if text.endswith("\n") else text + "\n").encode(), np.uint8)
    except UnicodeEncodeError:
        return None
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    if len(seps) % n_cols:
        return None
    seps = seps.reshape(-1, n_cols)
    ends = seps[:, -1]
    if (not (data[seps] == np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)).all()
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    # Each line's name is data[start:stop], stripped as str.strip does.
    start, stop = np.concatenate(([0], ends[:-1] + 1)), seps[:, 0].copy()
    for i in np.flatnonzero(_STRIP_EDGE[data[start]] | _STRIP_EDGE[data[stop - 1]]).tolist():
        name = data[start[i]:stop[i]].tobytes().decode()
        start[i] += len(name[:len(name) - len(name.lstrip())].encode())
        stop[i] -= len(name[len(name.rstrip()):].encode())
    span = stop - start
    if not (span > 0).all():
        return None
    names = Names(data[_text.runs(start, span)].tobytes(),
                  np.concatenate(([0], np.cumsum(span))))
    values = np.full((4, len(names)), _DEFAULT_TEMP_K)
    try:
        values[:n_cols - 1] = _text.read_decimals(data, seps[:, :-1].ravel() + 1,
                                                  seps[:, 1:].ravel()).reshape(-1, n_cols - 1).T
    except ValueError:
        return None
    _check_ranges(values, lambda row: f"line {offset + 1 + row}")
    return names, values


def _numbered(lines, before: int):
    """lines, numbered from before + 1: ParseError at the first with a byte that is not UTF-8."""
    for line, text in enumerate(lines, before + 1):
        if byte := _NOT_UTF8.search(text):
            raise ParseError(line, f"not UTF-8: byte 0x{ord(byte[0]) - 0xDC00:02x}")
        yield text


def _parse_rows(reader, offset: int, n_cols: int) -> tuple[Names, np.ndarray]:
    """Names and (4, rows) values of reader's rows, numbered from offset, range-checked."""
    pad = () if n_cols == len(_HEADER) else (_DEFAULT_TEMP_K,)
    names, lines = [], []   # each row's name and line number
    values: list[float] = []   # each row's four values, flattened
    try:
        for row in reader:
            line = offset + reader.line_num   # its last line: a quoted field may span several
            if not row:
                continue  # blank line
            if len(row) != n_cols:
                raise ParseError(line, f"expected {n_cols} columns, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise ParseError(line, "column name: empty")
            try:
                values.extend(tuple(map(float, row[1:])) + pad)
            except ValueError:
                for col, text in zip(_HEADER[1:], row[1:]):
                    try:
                        float(text)
                    except ValueError:
                        raise ParseError(line, f"column {col}: not a number: "
                                               f"{text!r}") from None
            names.append(name)
            lines.append(line)
    except (ParseError, csv.Error):
        _check_ranges(np.reshape(values, (-1, 4)).T, lambda row: f"line {lines[row]}")
        raise
    block = np.reshape(values, (-1, 4)).T
    _check_ranges(block, lambda row: f"line {lines[row]}")
    return Names.from_strings(names), block


def _normalized(z1r, z1i, z2r, z2i):
    """The pairs (z1 : z2) scaled to unit length, as :class:`SpherePoint` does.

    The norm is ``math.hypot`` of the two moduli, which no numpy function
    rounds like; pairs within _NORM_SKIP of unit length are left untouched.
    """
    norm = np.fromiter(map(math.hypot, np.hypot(z1r, z1i).tolist(), np.hypot(z2r, z2i).tolist()),
                       dtype=float, count=len(z1r))
    norm[np.abs(norm - 1.0) <= _NORM_SKIP] = 1.0
    return z1r / norm, z1i / norm, z2r / norm, z2i / norm


def transform_catalog(catalog: Catalog, chi: Rapidity) -> BoostedCatalog:
    """Boost the whole catalog along +x3 with rapidity chi.

    An order-preserving map over the columns, run over chunks of
    :data:`~lorentzsky._text.CHUNK` stars into columns allocated once.  It
    repeats, operation for operation, the per-star chain of
    :func:`~lorentzsky.sphere.from_polar`, :meth:`MoebiusTransform.dilation`
    and :func:`~lorentzsky.celestial.doppler`, so every value is bit-identical
    to that chain's.  Hence libm's pow, hypot and log10 where numpy's
    vectorised versions round differently.  Raises :class:`RangeError` when
    chi is not finite or the boosted photometry overflows.
    """
    exp_pos, exp_neg = _exp_rapidity(chi)
    shrink = math.exp(-0.5 * chi)   # the dilation's spinor diag(shrink, 1 / shrink)
    n = len(catalog)
    z1, z2 = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    doppler, temp_k, vmag = np.empty(n), np.empty(n), np.empty(n)
    for rows in _text.chunks(n):
        half = 0.5 * np.radians(90.0 - catalog.dec_deg[rows])
        phi = np.radians(catalog.ra_deg[rows])
        s, c = np.sin(half), np.cos(half)
        # The sine and cosine of one half-angle make a pair within about an ulp of unit
        # length, far inside _NORM_SKIP, so from_polar's normalization leaves it as is.
        z1r, z1i, z2r, z2i = _normalized(shrink * (s * np.cos(phi)), shrink * (s * np.sin(phi)),
                                         (1.0 / shrink) * c, np.zeros_like(c))
        z1[rows], z2[rows] = z1r + 1j * z1i, z2r + 1j * z2i
        with np.errstate(over="ignore"):  # overflow is checked below
            if chi == 0.0:
                doppler[rows] = 1.0
            else:
                # float_power is libm pow, as Python's x ** 2; np.square rounds differently.
                doppler[rows] = exp_pos * np.float_power(c, 2.0) + exp_neg * np.float_power(s, 2.0)
            temp_k[rows] = doppler[rows] * catalog.temp_k[rows]
        if not np.isfinite(temp_k[rows]).all():
            raise RangeError(f"rapidity {chi!r} overflows the boosted temperatures")
        log_d = np.fromiter(map(math.log10, doppler[rows].tolist()), dtype=float, count=len(c))
        vmag[rows] = catalog.vmag[rows] - 10.0 * log_d
    return BoostedCatalog(catalog.names, z1, z2, doppler, temp_k, vmag)
