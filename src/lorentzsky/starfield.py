"""Star catalogs and their appearance in a boosted frame.

The boost axis is fixed to +x3, the north celestial pole (dec = +90), so
the sphere action is the pure dilation z -> e^{-chi} z; boosts along other
axes are reachable by pre-rotating the catalog.  The photometric model is
deliberately simple: temperature scales with the Doppler factor D
(blackbody peak) and magnitudes shift by -10 log10 D, the bolometric D^4
beaming expressed in the 2.5-log magnitude convention.

Catalogs are columns, one float64 array per field, from parse to render.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from ._text import read_decimals
from .celestial import _exp_rapidity
from .errors import ParseError, RangeError
from .minkowski import Rapidity
from .sphere import _NORM_SKIP

_HEADER = ["name", "ra_deg", "dec_deg", "vmag", "temp_k"]
_DEFAULT_TEMP_K = 5778.0
_READ = 1 << 18   # characters of catalog text read and parsed together


@dataclass(frozen=True, eq=False)
class Catalog:
    """Star catalog as columns: names, angles in degrees, temperature in kelvin.

    Construction copies the columns into float64 arrays and raises
    :class:`RangeError` naming the first star with a value out of range.
    """

    names: Sequence[str]
    ra_deg: np.ndarray
    dec_deg: np.ndarray
    vmag: np.ndarray
    temp_k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        for field in _HEADER[1:]:
            col = np.array(getattr(self, field), dtype=float)
            if col.shape != (len(self.names),):
                raise RangeError(f"{field} has shape {col.shape}, "
                                 f"expected ({len(self.names)},)")
            col.setflags(write=False)
            object.__setattr__(self, field, col)
        _check_ranges((self.ra_deg, self.dec_deg, self.vmag, self.temp_k),
                      lambda row: f"star {row} ({self.names[row]})")

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

    names: tuple[str, ...]
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
    raise :class:`RangeError`.  Either error names the first bad line.  A file
    given by path that is not UTF-8 raises ParseError naming the line of its
    first invalid byte; a stream lets its UnicodeDecodeError out.

    The body is read _READ characters at a time, cut after the last newline;
    plain pieces (see :func:`_plain_piece`) are parsed from their UTF-8 bytes.
    The per-row csv loop :func:`_parse_rows`, the reference parser and the
    error path, parses everything from the first other piece on, so a catalog
    with quoted names, CR line endings, blank lines or a line longer than
    _READ is parsed by it from the first such piece.  A stream must end its
    lines at "\n" (newline None, "" or "\n"), as csv.reader needs.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return load_catalog(fh)
        except UnicodeDecodeError:
            return load_catalog(_TextBefore(Path(source).read_bytes()))
    reader = csv.reader(source)
    offset = 0   # physical lines read before reader's first
    names, blocks = [], []   # blocks: (4, rows) values, range-checked
    try:
        if (header := next(reader, None)) is None:
            raise ParseError(1, "missing header row")
        header = [h.strip() for h in header]
        if header not in (_HEADER, _HEADER[:4]):
            raise ParseError(1, f"expected header {','.join(_HEADER)} "
                                f"(temp_k optional), got {','.join(header)}")
        offset = reader.line_num
        tail = ""   # the text after the last newline read
        while text := tail + (chunk := source.read(_READ)):
            cut = text.rfind("\n") + 1 if chunk else len(text)
            piece = _plain_piece(text[:cut], len(header)) if cut else None
            if piece is None:
                # The lines iterating source gives: one that reports the newlines it
                # reads (newline None or "") ends lines at "\r" and "\r\n" too.
                newline = "" if getattr(source, "newlines", None) else "\n"
                lines = io.StringIO(text + source.readline(), newline=newline)
                reader = csv.reader(chain(lines, source))
                piece = _parse_rows(reader, offset, len(header))
                names += piece[0]
                blocks.append(piece[1])
                break
            _check_ranges(piece[1], lambda row: f"line {offset + 1 + row}")
            names += piece[0]
            blocks.append(piece[1])
            offset += len(piece[0])
            tail = text[cut:]
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise ParseError(offset + reader.line_num, str(exc)) from None
    return Catalog(names, *np.concatenate([np.empty((4, 0)), *blocks], axis=1))


class _TextBefore(io.StringIO):
    """The text of a file before the line holding its first byte that is not UTF-8.

    Reading or iterating on from its end raises ParseError naming that physical
    line (line ends counted as open(..., newline="") counts them: LF, CRLF and a
    lone CR), so the parser meets any error on an earlier line first.  readline()
    returns "" there, so the csv fallback still parses the text it was handed.
    """

    def __init__(self, data: bytes):
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        start = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
        super().__init__(head[:start].decode("utf-8"), newline="")
        self._error = ParseError(line, f"not UTF-8: byte 0x{data[len(head)]:02x}")

    def read(self, size: int | None = -1) -> str:
        if text := super().read(size):
            return text
        raise self._error

    def __next__(self) -> str:
        if line := self.readline():
            return line
        raise self._error


def _plain_piece(text: str, n_cols: int) -> tuple[list[str], np.ndarray] | None:
    """Names and (4, lines) values of plain lines, else None.

    Plain lines need no csv rule: no quote, CR or NUL, n_cols - 1 commas and a
    newline each (so no blank line; the last line may lack its newline), none
    over the csv field limit, a name and numbers float() reads.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    data = np.frombuffer((text if text.endswith("\n") else text + "\n")
                         .encode("utf-8", "surrogatepass"), np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    if len(seps) % n_cols:
        return None
    seps = seps.reshape(-1, n_cols)
    ends = seps[:, -1]
    if (not (data[seps] == np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)).all()
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    # Each line's name and its comma, gathered into one text.
    first = np.concatenate(([0], ends[:-1] + 1))
    span = seps[:, 0] + 1 - first
    at = np.repeat(first - np.cumsum(span) + span, span) + np.arange(span.sum())
    names = list(map(str.strip, data[at].tobytes().decode("utf-8", "surrogatepass")
                     .split(",")[:-1]))
    if not all(names):
        return None
    values = np.full((4, len(names)), _DEFAULT_TEMP_K)
    try:
        values[:n_cols - 1] = read_decimals(data, seps[:, :-1].ravel() + 1,
                                            seps[:, 1:].ravel()).reshape(-1, n_cols - 1).T
    except ValueError:
        return None
    return names, values


def _parse_rows(reader, offset: int, n_cols: int) -> tuple[list[str], np.ndarray]:
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
    return names, block


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

    An order-preserving map over the columns.  It repeats, operation for
    operation, the per-star chain of :func:`~lorentzsky.sphere.from_polar`,
    :meth:`MoebiusTransform.dilation` and :func:`~lorentzsky.celestial.doppler`,
    so every value is bit-identical to that chain's.  Hence libm's pow,
    hypot and log10 where numpy's vectorised versions round differently.
    Raises :class:`RangeError` when chi is not finite or the boosted
    photometry overflows.
    """
    exp_pos, exp_neg = _exp_rapidity(chi)
    half = 0.5 * np.radians(90.0 - catalog.dec_deg)
    phi = np.radians(catalog.ra_deg)
    s, c = np.sin(half), np.cos(half)
    # The sine and cosine of one half-angle make a pair within about an ulp of unit
    # length, far inside _NORM_SKIP, so from_polar's normalization leaves it as is.
    shrink = math.exp(-0.5 * chi)   # the dilation's spinor diag(shrink, 1 / shrink)
    z1r, z1i, z2r, z2i = _normalized(shrink * (s * np.cos(phi)), shrink * (s * np.sin(phi)),
                                     (1.0 / shrink) * c, np.zeros_like(c))
    with np.errstate(over="ignore"):  # overflow is checked below
        if chi == 0.0:
            doppler = np.ones_like(c)
        else:
            # float_power is libm pow, as Python's x ** 2; np.square rounds differently.
            doppler = exp_pos * np.float_power(c, 2.0) + exp_neg * np.float_power(s, 2.0)
        temp_k = doppler * catalog.temp_k
    if not np.isfinite(temp_k).all():
        raise RangeError(f"rapidity {chi!r} overflows the boosted temperatures")
    log_d = np.fromiter(map(math.log10, doppler.tolist()), dtype=float, count=len(doppler))
    return BoostedCatalog(catalog.names, z1r + 1j * z1i, z2r + 1j * z2i,
                          doppler, temp_k, catalog.vmag - 10.0 * log_d)

