"""Command-line surface: documents in, machine-readable reports out.

Documents are JSON, one object per file: an algebra is either a builder
invocation ({"builder": "square_zero", "n": 1}) or an explicit finite table
(field, basis, differential, multiplication, unit, augmentation); modules
and squares are small wrappers over the same shapes.  Reports are JSON on
standard output with every scalar rendered exactly (integer strings and
"p/q"); identical inputs are served from an on-disk cache keyed by a hash
of the canonicalized documents, the command, the window, the options, the
engine version and a digest of the engine's sources.

Each report is encoded once, as json.dumps(report, sort_keys=True,
indent=2); that text is the cache entry, and it is printed with the
duration line put in.  A hit reads the entry's text, checks that it parses
to an object carrying this request's input_hash and that it has the stored
layout, and prints it without encoding it again; any other entry is a
miss, recomputed and rewritten.

Exit codes: 0 success, 2 refusal (a precondition does not hold), 3
structural or validation failure, 4 parse error.
"""

import argparse
import functools
import glob
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__
from .exactla import Field, Window, RefusalError, StructuralError
from .bar import ConvergenceError, bar_homology_dims, derived_tensor_dims
from .dga import (
    algebra_slice, connective_cover, finite_dga_from_tables, free_assoc,
    square_zero, truncated_polynomial,
)
from .dual import (
    bidual_cohomology, check_power_generation, dual_cohomology_dims,
    dual_cohomology_ring,
)
from .dgmod import (
    koszul_complex, laurent_module, regular_module, strict_tensor,
    trivial_module, zero_module,
)
from .extres import ext_dims
from .artin import radical_filtration, small_extension_square, verify_square


class DocumentError(Exception):
    """A document failed to parse; the message names file and position."""


# ---------------------------------------------------------------------------
# documents


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror or e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def _canonical(raw):
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def parse_field_name(text):
    if not isinstance(text, str):
        raise DocumentError(f"'field' must be a string, Q or Fp:P, got {text!r}")
    if text == "Q":
        return Field()
    if text.startswith("Fp:"):
        try:
            return Field(int(text[3:]))
        except (ValueError, RefusalError) as e:
            raise DocumentError(f"bad field {text!r}: {e}") from None
    raise DocumentError(f"bad field {text!r}: expected Q or Fp:P")


def _parse_scalar(field, value, where):
    if isinstance(value, int):
        return field.of_int(value)
    if isinstance(value, str):
        try:
            return field.parse(value)
        except (ValueError, ZeroDivisionError) as e:
            raise DocumentError(f"{where}: bad scalar {value!r}: {e}") from None
    raise DocumentError(f"{where}: scalars must be integers or 'p/q' strings")


def _parse_lincomb(field, entries, where):
    lc = {}
    if not isinstance(entries, list):
        raise DocumentError(f"{where}: expected a list of [coefficient, name]")
    for pair in entries:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[1], str)):
            raise DocumentError(f"{where}: expected [coefficient, name] pairs")
        c = _parse_scalar(field, pair[0], where)
        if not field.is_zero(c):
            lc[pair[1]] = field.add(lc.get(pair[1], field.zero), c)
    return {m: c for m, c in lc.items() if not field.is_zero(c)}


class AlgebraHandle:
    """A parsed algebra document: the spec, plus a complete finite slice
    whenever the algebra has one (commands that need exactness on the nose
    refuse when fdga is None)."""

    def __init__(self, raw, name, spec, fdga):
        self.raw = raw
        self.name = name
        self.spec = spec
        self.fdga = fdga


def parse_algebra_document(raw, field, validate=True):
    """Parse a builder invocation or an explicit table into an AlgebraHandle.

    Explicit tables are validated on the spot (a table that breaks the
    axioms is a structural failure); builders are constructed sound.
    """
    if not isinstance(raw, dict):
        raise DocumentError("algebra document must be a JSON object")

    if "builder" in raw:
        name = raw["builder"]
        if name == "square_zero":
            n = raw.get("n")
            if not isinstance(n, int):
                raise DocumentError("square_zero needs an integer 'n'")
            spec = square_zero(field, n)
        elif name == "truncated_polynomial":
            m, d = raw.get("m"), raw.get("d")
            if not isinstance(m, int) or not isinstance(d, int):
                raise DocumentError(
                    "truncated_polynomial needs integers 'm' and 'd'")
            spec = truncated_polynomial(field, m, d)
        elif name == "free_assoc":
            gens = raw.get("gens")
            if (not isinstance(gens, list) or not gens
                    or not all(isinstance(g, list) and len(g) == 2
                               and isinstance(g[0], str) and isinstance(g[1], int)
                               for g in gens)):
                raise DocumentError(
                    "free_assoc needs 'gens': a list of [name, degree]")
            spec = free_assoc(field, [(g[0], g[1]) for g in gens])
        elif name == "laurent":
            raise RefusalError(
                "laurent describes a module, not an augmented algebra "
                "(no augmented algebra contains 1/t); use it in a module "
                "position")
        else:
            raise DocumentError(f"unknown builder {name!r}")
        fdga = None
        if spec.min_degree is not None and spec.max_degree is not None:
            fdga = algebra_slice(spec, Window(spec.min_degree, spec.max_degree))
        return AlgebraHandle(raw, spec.name, spec, fdga)

    for key in ("basis", "multiplication", "unit", "augmentation"):
        if key not in raw:
            raise DocumentError(f"algebra document is missing {key!r}")
    name = raw.get("name", "algebra")
    entries = raw["basis"]
    if (not isinstance(entries, list) or not entries
            or not all(isinstance(b, list) and len(b) == 2
                       and isinstance(b[0], str) and isinstance(b[1], int)
                       for b in entries)):
        raise DocumentError("'basis' must be a nonempty list of [name, degree]")
    basis = {}
    for label, d in entries:
        basis.setdefault(d, []).append(label)
    basis = {d: tuple(ls) for d, ls in basis.items()}
    window = Window(min(basis), max(basis))

    diff = {}
    differential = raw.get("differential") or {}
    if not isinstance(differential, dict):
        raise DocumentError("'differential' must be an object of label: combination")
    for label, entry in differential.items():
        lc = _parse_lincomb(field, entry, f"differential of {label!r}")
        if lc:
            diff[label] = lc
    mult_table = {}
    mult_entries = raw["multiplication"]
    if not isinstance(mult_entries, list):
        raise DocumentError(
            "'multiplication' must be a list of [a, b, combination] triples")
    for triple in mult_entries:
        if not (isinstance(triple, list) and len(triple) == 3
                and isinstance(triple[0], str) and isinstance(triple[1], str)):
            raise DocumentError(
                "'multiplication' must be a list of [a, b, combination] triples")
        lc = _parse_lincomb(field, triple[2],
                            f"product {triple[0]!r}*{triple[1]!r}")
        if lc:
            mult_table[(triple[0], triple[1])] = lc
    unit = raw["unit"]
    if not isinstance(unit, str):
        raise DocumentError("'unit' must be the name of a basis element")
    if not isinstance(raw["augmentation"], dict):
        raise DocumentError("'augmentation' must be an object of label: scalar")
    aug = {l: _parse_scalar(field, c, f"augmentation of {l!r}")
           for l, c in raw["augmentation"].items()}

    fdga = finite_dga_from_tables(field, window, basis, diff, mult_table,
                                  unit, aug, complete=True, name=name)
    if validate:
        fdga.validate().raise_if_failed()
    return AlgebraHandle(raw, name, fdga.as_spec(name), fdga)


def parse_module_document(raw, algebra, field):
    """Parse a module document against the ambient algebra's spec."""
    if not isinstance(raw, dict) or "module" not in raw:
        raise DocumentError(
            "module document must be an object with a 'module' key")
    kind = raw["module"]
    if kind == "trivial":
        return trivial_module(algebra.spec)
    if kind == "regular":
        return regular_module(algebra.spec)
    if kind == "zero":
        return zero_module(algebra.spec)
    if kind == "laurent":
        g = raw.get("g")
        if not isinstance(g, int):
            raise DocumentError("laurent module needs an integer 'g'")
        return laurent_module(field, g)
    raise DocumentError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _dims_list(dims, window):
    return [[d, int(dims.get(d, 0))] for d in window.degrees()]


def _write_atomic(path, text):
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cache_dir(args):
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get("KOSZUL_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "koszul")


@functools.lru_cache(maxsize=None)
def _engine_key():
    """The engine version plus a sha256 of the package's sources, so that any
    code change invalidates the cache.  Read once per process."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        h.update(os.path.basename(path).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return f"{__version__}+{h.hexdigest()}"


# Every report has "documents" and "engine_version", and sorted keys put
# "duration_seconds" between them, so it goes in just before this line.
_ENGINE_LINE = '\n  "engine_version": '


def _emit(text, duration):
    """Write a report, encoded once in the stored layout, with its duration:
    the bytes json.dumps(..., sort_keys=True, indent=2) gives for the report
    holding it."""
    head, line, tail = text.partition(_ENGINE_LINE)
    sys.stdout.write(
        f'{head}\n  "duration_seconds": {round(duration, 6)!r},{line}{tail}')


# ---------------------------------------------------------------------------
# commands


def _require_complete(handle):
    if handle.fdga is None:
        raise RefusalError(
            f"{handle.name} has no finite complete slice; this command needs "
            "one (bounded basis degrees on both sides)")
    return handle.fdga


def cmd_validate(args, field, handles):
    handle = handles[0]
    if handle.fdga is not None and "builder" not in handle.raw:
        slice_ = handle.fdga
    else:
        slice_ = algebra_slice(handle.spec, args.window)
    verdict = slice_.validate()
    result = {
        "ok": verdict.ok,
        "checks": {name: bool(v) for name, v in sorted(verdict.checks.items())},
        "witnesses": {name: repr(w) for name, w in sorted(verdict.witnesses.items())
                      if not verdict.checks.get(name, True)},
        "dims": [[d, n] for d, n in sorted(slice_.dims().items())],
    }
    return result, (0 if verdict.ok else 3)


def cmd_bar(args, field, handles):
    dims = bar_homology_dims(handles[0].spec, args.window)
    return {"dims": _dims_list(dims, args.window)}, 0


def cmd_dual(args, field, handles):
    spec = handles[0].spec
    result = {}
    if args.ring or args.power_gen is not None:
        report = dual_cohomology_ring(spec, args.window)
        result["dims"] = _dims_list(report.dims, args.window)
        if args.ring:
            ring = []
            for (c1, c2), lc in sorted((report.ring or {}).items()):
                ring.append([list(c1), list(c2),
                             [[list(c3), field.format(v)]
                              for c3, v in sorted(lc.items())]])
            result["ring"] = ring
            result["ring_skipped"] = [list(t)
                                      for t in sorted(report.ring_skipped)]
            result["unreliable_degrees"] = sorted(report.unreliable)
        if args.power_gen is not None:
            result["power_generated"] = check_power_generation(
                report, args.power_gen)
    else:
        dims = dual_cohomology_dims(spec, args.window)
        result["dims"] = _dims_list(dims, args.window)
    return result, 0


def cmd_ext(args, field, handles):
    handle = handles[0]
    fdga = _require_complete(handle)
    if any(d > 0 for d, ls in fdga.basis.items() if ls):
        dual_spec = connective_cover(fdga).as_spec()
    else:
        dual_spec = handle.spec
    ext = ext_dims(fdga, args.window)
    dual = dual_cohomology_dims(dual_spec, args.window)
    agree = all(ext.get(d, 0) == dual.get(d, 0) for d in args.window.degrees())
    return {
        "ext_dims": _dims_list(ext, args.window),
        "dual_dims": _dims_list(dual, args.window),
        "agree": agree,
    }, 0


def cmd_bidual(args, field, handles):
    handle = handles[0]
    bidual = bidual_cohomology(handle.spec, args.window)
    inner = algebra_slice(handle.spec, args.window.padded())
    input_dims = inner.cohomology(representatives=False).dims
    agree = all(bidual.get(d, 0) == input_dims.get(d, 0)
                for d in args.window.degrees())
    return {
        "bidual_dims": _dims_list(bidual, args.window),
        "input_dims": _dims_list(input_dims, args.window),
        "agree": agree,
    }, 0


def cmd_tensor(args, field, handles):
    left_h, alg_h, right_h = handles
    left = parse_module_document(left_h, alg_h, field)
    right = parse_module_document(right_h, alg_h, field)
    derived = derived_tensor_dims(left, alg_h.spec, right, args.window)
    result = {"derived_dims": _dims_list(derived, args.window)}
    if args.strict_via_kos is not None:
        kos = koszul_complex(field, args.strict_via_kos)
        strict = strict_tensor(kos, args.window.padded())
        strict_dims = strict.cohomology(representatives=False).dims
        result["strict_dims"] = _dims_list(strict_dims, args.window)
        result["strict_matches_derived"] = all(
            strict_dims.get(d, 0) == derived.get(d, 0)
            for d in args.window.degrees())
    return result, 0


def cmd_square(args, field, handles):
    raw = handles[0]
    if not isinstance(raw, dict) or raw.get("square") != "small_extension":
        raise DocumentError(
            "square document must be an object with \"square\": "
            "\"small_extension\", an 'algebra' document and an integer 'shift'")
    if "algebra" not in raw or not isinstance(raw.get("shift"), int):
        raise DocumentError(
            "small_extension squares need an 'algebra' document and an "
            "integer 'shift'")
    handle = parse_algebra_document(raw["algebra"], field)
    fdga = _require_complete(handle)
    f, g, p, q = small_extension_square(fdga, raw["shift"])
    verdict = verify_square(f, g, p, q, window=args.window)
    fp_dims = None
    if verdict.fiber_product is not None:
        fp_dims = [[d, n] for d, n in sorted(verdict.fiber_product.dims().items())]
    return {
        "verdict": bool(verdict),
        "reason": verdict.reason,
        "fiber_product_dims": fp_dims,
    }, 0


def cmd_series(args, field, handles):
    ring_h = handles[0]
    fdga = _require_complete(ring_h)
    module = None
    if len(handles) > 1 and handles[1] is not None:
        module = parse_module_document(handles[1], ring_h, field)
    series = radical_filtration(fdga, module=module)
    return {
        "radical_dims": list(series.radical_dims),
        "length": series.length,
        "factors": list(series.factors),
    }, 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _window_type(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}: expected LO..HI")
    try:
        return Window(int(lo), int(hi))
    except (ValueError, RefusalError) as e:
        raise argparse.ArgumentTypeError(f"bad window {text!r}: {e}")


def _add_common(sub, window_required=True, window=True):
    if window:
        sub.add_argument("--window", type=_window_type, required=window_required,
                         metavar="LO..HI",
                         help="degree window, e.g. --window=0..8 or --window=-4..1")
    sub.add_argument("--field", default=None, metavar="Q|Fp:P",
                     help="ground field (default Q)")
    sub.add_argument("--no-cache", action="store_true",
                     help="skip the report cache entirely")
    sub.add_argument("--cache-dir", default=None, metavar="PATH",
                     help="cache directory (default $KOSZUL_CACHE_DIR or "
                          "~/.cache/koszul)")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls, each returns a fresh namespace."""
    parser = _Parser(prog="koszul",
                     description="Exact Koszul duality computations on degree "
                                 "windows; JSON documents in, JSON reports out.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the dg algebra axioms on a slice")
    p.add_argument("algebra")
    _add_common(p)

    p = subs.add_parser("bar", help="bar homology dimensions")
    p.add_argument("algebra")
    _add_common(p)

    p = subs.add_parser("dual", help="Koszul dual cohomology dimensions")
    p.add_argument("algebra")
    p.add_argument("--ring", action="store_true",
                   help="include ring structure constants")
    p.add_argument("--power-gen", type=int, default=None, metavar="G",
                   help="check generation by powers of a degree-G class")
    _add_common(p)

    p = subs.add_parser("ext", help="Ext dimensions by resolution, checked "
                                    "against the dual")
    p.add_argument("algebra")
    _add_common(p)

    p = subs.add_parser("bidual", help="double dual dimensions against the input")
    p.add_argument("algebra")
    _add_common(p)

    p = subs.add_parser("tensor", help="derived tensor dimensions of two modules")
    p.add_argument("left")
    p.add_argument("algebra")
    p.add_argument("right")
    p.add_argument("--strict-via-kos", type=int, default=None, metavar="N",
                   help="also compute the strict tensor through the length-N "
                        "Koszul complex and compare")
    _add_common(p)

    p = subs.add_parser("square", help="verify a homotopy pushout square")
    p.add_argument("square")
    _add_common(p, window_required=False)

    p = subs.add_parser("series", help="radical filtration and composition series")
    p.add_argument("ring")
    p.add_argument("module", nargs="?", default=None)
    _add_common(p, window=False)

    return parser


_RUNNERS = {
    "validate": cmd_validate,
    "bar": cmd_bar,
    "dual": cmd_dual,
    "ext": cmd_ext,
    "bidual": cmd_bidual,
    "tensor": cmd_tensor,
    "square": cmd_square,
    "series": cmd_series,
}

_DOC_ARGS = {
    "validate": ["algebra"],
    "bar": ["algebra"],
    "dual": ["algebra"],
    "ext": ["algebra"],
    "bidual": ["algebra"],
    "tensor": ["left", "algebra", "right"],
    "square": ["square"],
    "series": ["ring", "module"],
}

# the flags that enter each command's report and cache key; a document
# role (series names its first document "ring") is never an option
_OPTIONS = {
    "dual": ("ring", "power_gen"),
    "tensor": ("strict_via_kos",),
}


def _resolve_field(args, raws):
    declared = None
    for raw in raws:
        if not isinstance(raw, dict):
            continue
        if "field" in raw:
            declared = raw["field"]
            break
        inner = raw.get("algebra")
        if isinstance(inner, dict) and "field" in inner:
            declared = inner["field"]
            break
    if args.field is not None:
        flag = args.field
        if declared is not None and declared != flag:
            raise DocumentError(
                f"document declares field {declared!r} but --field says {flag!r}")
        return parse_field_name(flag)
    if declared is not None:
        return parse_field_name(declared)
    return Field()


def main(argv=None):
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        raws = []
        roles = []
        for role in _DOC_ARGS[args.command]:
            path = getattr(args, role)
            if path is None:
                continue
            raws.append(_load_json(path))
            roles.append(role)

        field = _resolve_field(args, raws)

        window = getattr(args, "window", None)
        options = {k: getattr(args, k) for k in _OPTIONS.get(args.command, ())}
        canonicals = [_canonical(r) for r in raws]
        payload = _canonical({
            "engine": _engine_key(),
            "command": args.command,
            "field": field.name,
            "window": [window.lo, window.hi] if window is not None else None,
            "options": options,
            "documents": canonicals,
        })
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()

        cache_path = None
        if not args.no_cache:
            cache_path = os.path.join(_cache_dir(args), digest + ".json")
            try:
                with open(cache_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
                stored = json.loads(text)
            except (OSError, ValueError):
                stored = None
            # anything but this request's report in the stored layout is a
            # miss, rewritten below; a hit is emitted as read
            if (isinstance(stored, dict) and stored.get("input_hash") == digest
                    and _ENGINE_LINE in text and text.endswith("\n}\n")):
                _emit(text, time.monotonic() - start)
                return 0

        # algebra-document positions get parsed here; module and square
        # documents stay raw for the command to interpret in context
        handles = []
        for role, raw in zip(roles, raws):
            if role in ("algebra", "ring"):
                handles.append(parse_algebra_document(
                    raw, field, validate=args.command != "validate"))
            else:
                handles.append(raw)

        report = {
            "command": args.command,
            "engine_version": __version__,
            "field": field.name,
            "window": [window.lo, window.hi] if window is not None else None,
            "input_hash": digest,
            "documents": [{
                "role": role,
                "sha256": hashlib.sha256(c.encode("utf-8")).hexdigest(),
            } for role, c in zip(roles, canonicals)],
            "options": options,
            "flags": {"refusal": None},
        }

        try:
            result, code = _RUNNERS[args.command](args, field, handles)
            report["result"] = result
        except ConvergenceError as e:
            report["result"] = None
            report["flags"] = {"refusal": str(e),
                               "generator_degrees": sorted(set(e.degrees))}
            code = 2
        except RefusalError as e:
            report["result"] = None
            report["flags"] = {"refusal": str(e)}
            code = 2
        except StructuralError as e:
            report["result"] = None
            report["flags"] = {"structural": str(e)}
            code = 3

        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if code == 0 and cache_path is not None:
            try:
                os.makedirs(os.path.dirname(cache_path), exist_ok=True)
                _write_atomic(cache_path, text)
            except OSError as e:  # the answer still goes out, uncached
                sys.stderr.write(f"koszul: warning: report not cached: {e}\n")
        _emit(text, time.monotonic() - start)
        return code
    except DocumentError as e:
        sys.stderr.write(f"koszul: parse error: {e}\n")
        return 4
    except RefusalError as e:
        sys.stderr.write(f"koszul: refused: {e}\n")
        return 2
    except StructuralError as e:
        sys.stderr.write(f"koszul: structural failure: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
