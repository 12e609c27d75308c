"""Command-line interface.

Subcommands: classify, decompose, lift, mobius, aberrate, render.
classify, decompose, lift and mobius are functions of their JSON payload.
Exit codes: 0 on success, 1 on validation errors, 2 on usage errors.
All numeric output carries 12 significant digits.  Matrices travel as
JSON {"m": [[row0], [row1], [row2], [row3]]}; complex numbers as
[re, im] pairs, with the literal "inf" for the point at infinity.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from . import _text
from .celestial import aberrate, doppler
from .decompose import standard_decompose
from .errors import LorentzSkyError
from .minkowski import LorentzMatrix, classify_component, validate_lorentz
from .render import RenderSpec, _FORMATS, _HEMISPHERES, _PROJECTIONS, render
from .sphere import MoebiusTransform
from .spin import SL2CElement, lift_lorentz_to_sl2c
from .starfield import BoostedCatalog, load_catalog, transform_catalog

_C_M_PER_S = 299_792_458  # for documentation: velocities here are fractions of this
# Bytes a JSON string holds as they are: printable ASCII but '"' and '\\'.
_JSON_PLAIN = np.array([0x20 <= b <= 0x7e and chr(b) not in '"\\' for b in range(256)])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, list):
        return [_round12(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(payload: Any) -> str:
    return json.dumps(_round12(payload)) + "\n"


def _read_json(in_path: str | None) -> Any:
    text = Path(in_path).read_text(encoding="utf-8") if in_path else sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LorentzSkyError(f"invalid JSON input: {exc}") from None
    except RecursionError:
        raise LorentzSkyError("invalid JSON input: nested too deeply") from None


def _number(value: Any) -> float:
    """float(value) of a JSON number; a string, true or false is refused (TypeError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _lorentz(payload: Any) -> LorentzMatrix:
    """The validated Lorentz matrix of a {"m": [[row0], ..., [row3]]} payload."""
    if not isinstance(payload, dict) or "m" not in payload:
        raise LorentzSkyError('expected a JSON object with key "m"')
    m = payload["m"]
    if (not isinstance(m, list) or len(m) != 4
            or any(not isinstance(r, list) or len(r) != 4 for r in m)):
        raise LorentzSkyError('"m" must be a 4x4 array of numbers')
    try:
        m = [[_number(v) for v in row] for row in m]
    except (TypeError, ValueError, OverflowError):
        raise LorentzSkyError('"m" must be a 4x4 array of numbers') from None
    return validate_lorentz(m)


def _complex_from_json(value: Any, key: str) -> complex:
    try:  # a list of another length, or anything but a list or number, is refused here
        re, im = (value, 0.0) if isinstance(value, (int, float)) else value
        return complex(_number(re), _number(im))
    except (TypeError, ValueError, OverflowError):
        raise LorentzSkyError(f'"{key}" must be a number or an [re, im] pair') from None


def _classify(payload: Any) -> str:
    return classify_component(_lorentz(payload)).value + "\n"


def _decompose(payload: Any) -> str:
    dec = standard_decompose(_lorentz(payload))
    return _json({"r1": dec.r1.tolist(), "chi": dec.chi, "r2": dec.r2.tolist()})


def _lift(payload: Any) -> str:
    s = lift_lorentz_to_sl2c(_lorentz(payload))
    return _json({k: [v.real, v.imag] for k, v in
                  (("a", s.a), ("b", s.b), ("c", s.c), ("d", s.d))})


def _mobius(payload: Any) -> str:
    if not isinstance(payload, dict):
        raise LorentzSkyError("expected a JSON object with keys a, b, c, d, points")
    coeffs = {k: _complex_from_json(payload.get(k), k) for k in "abcd"}
    mob = MoebiusTransform(SL2CElement(**coeffs))  # a ValueError exits 1 in cli_main
    points = payload.get("points")
    if not isinstance(points, list):
        raise LorentzSkyError('"points" must be a list of [re, im] pairs or "inf"')
    images = []
    for i, entry in enumerate(points):
        z = math.inf if entry == "inf" else _complex_from_json(entry, f"points[{i}]")
        w = mob.apply_complex(z)
        images.append("inf" if cmath.isinf(w) else [w.real, w.imag])
    return _json({"points": images})


def _cmd_aberrate(args: argparse.Namespace) -> None:
    if not 0.0 <= args.theta_deg <= 180.0:
        raise LorentzSkyError(f"--theta-deg must be in [0, 180], got {args.theta_deg}")
    theta = math.radians(args.theta_deg)
    theta_prime_deg = math.degrees(aberrate(args.chi, theta))
    dop = doppler(args.chi, theta)
    if args.json:
        text = _json({"theta_prime_deg": theta_prime_deg, "doppler": dop})
    else:
        text = f"theta_prime_deg {_fmt(theta_prime_deg)}\ndoppler {_fmt(dop)}\n"
    _emit(text, args.out)


def _json_star_chunks(sky: BoostedCatalog) -> Iterator[bytes]:
    """The "stars" list of the render summary, a chunk of rows at a time.

    The bytes of json.dumps of one {"name", "doppler", "temp_k", "vmag"} dict
    per star, joined by ", ", without building the dicts: numbers written by
    the kernel of :mod:`lorentzsky._text`, names copied out of their UTF-8
    buffer, except a name holding '"', '\\' or a byte outside printable
    ASCII, which json's own encoder escapes.
    """
    # An escaped name takes at most 6 bytes per byte of its UTF-8.
    for rows in _text.chunks(len(sky), 6 * np.diff(sky.names.offsets)):
        names = sky.names[rows]
        size = np.diff(names.offsets)
        utf8 = np.frombuffer(names.utf8, np.uint8, int(size.sum()), int(names.offsets[0]))
        field = np.zeros((len(size), int(size.max())), np.uint8)
        field.reshape(-1)[_text.runs(np.arange(len(size)) * field.shape[1], size)] = utf8
        escaped = np.zeros(len(size), dtype=bool)
        escaped[np.repeat(np.arange(len(size)), size)[~_JSON_PLAIN[utf8]]] = True
        field = _text.fallback(field, np.arange(rows.start, rows.stop), escaped,
                               lambda i: encode_basestring_ascii(sky.names[i])[1:-1])
        text = _text.join_rows([b', {"name": "', field,
                                b'", "doppler": ', _text.json_numbers(sky.doppler[rows]),
                                b', "temp_k": ', _text.json_numbers(sky.temp_k[rows]),
                                b', "vmag": ', _text.json_numbers(sky.vmag[rows]), b"}"])
        yield text[2:] if rows.start == 0 else text   # no ", " before the first star


def _cmd_render(args: argparse.Namespace) -> None:
    # The spec first: a bad size is refused before the catalog is read.
    spec = RenderSpec(projection=args.projection, width=args.width,
                      height=args.height, format=args.format,
                      hemisphere=args.hemisphere)
    sky = transform_catalog(load_catalog(args.input), args.chi)
    # The drop count reaches stderr only once the image is written, so a
    # failed write leaves "error: ..." as the only message.
    diagnostics = io.StringIO()
    Path(args.out).write_bytes(render(sky, spec, diagnostics))
    sys.stderr.write(diagnostics.getvalue())
    if args.json:
        sys.stdout.write(f'{{"out": {encode_basestring_ascii(args.out)}, '
                         f'"count": {len(sky)}, "stars": [')
        for chunk in _json_star_chunks(sky):
            sys.stdout.write(chunk.decode("ascii"))
        sys.stdout.write("]}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzsky",
        description="Lorentz matrices, their spinor lifts, Mobius maps of the "
                    "celestial sphere, and relativistic star-field rendering. "
                    f"Velocities are fractions of c = {_C_M_PER_S} m/s.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, to_text, text in (
            ("classify", _classify, "name the connected component of a Lorentz matrix"),
            ("decompose", _decompose, "factor as rotation . boost . rotation"),
            ("lift", _lift, "spinor lift of a proper orthochronous matrix"),
            ("mobius", _mobius, "apply z -> (a z + b)/(c z + d) to points")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", help="input file (default: stdin)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.set_defaults(func=lambda args, f=to_text: _emit(f(_read_json(args.input)), args.out))

    p = sub.add_parser("aberrate", help="apparent angle and Doppler factor under a boost")
    p.add_argument("--chi", type=float, required=True, help="boost rapidity")
    p.add_argument("--theta-deg", type=float, required=True,
                   help="angle from the boost axis to the line of sight, degrees")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_aberrate)

    p = sub.add_parser("render", help="render a star catalog seen from a boosted frame")
    p.add_argument("--chi", type=float, default=0.0,
                   help="boost rapidity along +x3 (omit for the unboosted sky)")
    p.add_argument("--input", required=True, help="catalog CSV")
    p.add_argument("--out", required=True, help="image file to write")
    p.add_argument("--format", choices=_FORMATS, default=RenderSpec.format)
    p.add_argument("--projection", choices=_PROJECTIONS, default=RenderSpec.projection)
    p.add_argument("--hemisphere", choices=_HEMISPHERES, default=RenderSpec.hemisphere)
    p.add_argument("--width", type=int, default=RenderSpec.width)
    p.add_argument("--height", type=int, default=RenderSpec.height)
    p.add_argument("--json", action="store_true",
                   help="print a JSON summary with per-star photometry")
    p.set_defaults(func=_cmd_render)
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (LorentzSkyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
