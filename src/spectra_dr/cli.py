"""Command line front end.

Commands read complexes as JSON (file path or '-' for stdin), write
deterministic output (json is sorted, csv is fixed-column), and use the
exit code contract: 0 success, 1 a verification failed, 2 bad input
(parse errors with position, validation errors naming the violated
invariant).  Dimension caps come from SPECTRA_DR_MAX_DIM via the matrix
layer.

The `model` command emits plain double-complex JSON so it pipes into
`cohomology`, `spectral`, `truncate` and `hodge`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from functools import lru_cache

from . import __version__
from .bicomplex import DoubleComplex, total
from .cochain import CochainComplex, betti_numbers, euler_characteristic
from .errors import ParseError, PreconditionViolation, ValidationError, WitnessFailure
from .models import (
    BUILTIN_SPECS,
    LieModelSpec,
    blowup_predict,
    kunneth_predict,
    leray_hirsch_predict,
    lie_model,
    point_model,
    product_model,
    projective_bundle_predict,
    torus_model,
)
from .spectral import limit_page, page, stabilization_index
from .suites import SUITES, run_suite
from .truncation import hodge_filtration_dims, hyper_dims, truncate


# -- input plumbing -------------------------------------------------------


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path!r} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None


def _load_complex(path: str):
    """A cochain or double complex, told apart by the dims key shape or, for
    a complex with no pieces, by a double complex's own fields; from_json
    refuses an input or a dims that is not an object."""
    obj = _read_json(path)
    if isinstance(obj, dict):
        keys = list(obj["dims"]) if isinstance(obj.get("dims"), dict) else []
        if (keys and all("," in str(k) for k in keys)) or obj.keys() & {"support", "d1", "d2"}:
            return DoubleComplex.from_json(obj)
    return CochainComplex.from_json(obj)


def _need_double(path: str) -> DoubleComplex:
    cx = _load_complex(path)
    if not isinstance(cx, DoubleComplex):
        raise ValidationError("this command needs a double complex (keys 'p,q')")
    return cx


def _parse_window(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"window must be 's,t', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"window bounds must be integers, got {text!r}") from None


def _parse_classes(text: str) -> list:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"class must be 'u,v', got {chunk!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"class bidegree must be integers: {chunk!r}") from None
    if not out:
        raise ParseError("empty class list")
    return out


def _model(kind: str, n=None, twist_rank: int = 1, builtin=None, spec=None):
    """The torus or lie model that `model torus|lie` and the model
    descriptors name.  A spec file's own twist rank holds unless
    twist_rank is not 1."""
    if kind == "torus":
        return torus_model(n, twist_rank)
    if builtin is not None:
        return lie_model(BUILTIN_SPECS[builtin](twist_rank))
    if spec is None:
        raise ParseError("model lie needs --builtin or --spec")
    spec = LieModelSpec.from_json(_read_json(spec))
    if twist_rank != 1:
        spec = LieModelSpec(spec.n, spec.images, twist_rank)
    return lie_model(spec)


def _parse_model(desc: str):
    """torus:N[:M] | point[:M] | lie:BUILTIN[:M] | lie:PATH"""
    kind, *rest = desc.split(":")
    try:
        if kind == "torus" and len(rest) in (1, 2):
            return _model(kind, *map(int, rest))
        if kind == "point" and len(rest) in (0, 1):
            return point_model(*map(int, rest))
        if kind == "lie" and rest and rest[0] not in BUILTIN_SPECS:
            return _model(kind, spec=":".join(rest))
        if kind == "lie" and len(rest) in (1, 2):
            return _model(kind, None, *map(int, rest[1:]), builtin=rest[0])
    except ValueError:
        raise ParseError(f"bad integer in model descriptor {desc!r}") from None
    raise ParseError(
        f"bad model descriptor {desc!r}; expected torus:N[:M], point[:M], "
        f"lie:{{{','.join(sorted(BUILTIN_SPECS))}}}[:M] or lie:PATH"
    )


# -- output plumbing ------------------------------------------------------


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload, key=str):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        if any(isinstance(x, (dict, list, tuple)) for x in payload):
            for i, x in enumerate(payload):
                rows.extend(_flatten(x, f"{prefix}{i}."))
        else:
            rows.append((prefix.rstrip("."), " ".join(str(x) for x in payload)))
    else:
        rows.append((prefix.rstrip("."), str(payload)))
    return rows


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "csv":
        # quotes a key such as limit.0,0; one write, so that unbuffered, a
        # reader that stops after one line (| head -1) breaks no later row
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(("key", "value"))
        out.writerows(_flatten(payload))
        sys.stdout.write(buf.getvalue())
    else:
        for key, val in _flatten(payload):
            print(f"{key}: {val}")


# -- commands -------------------------------------------------------------


def _cmd_cohomology(args) -> int:
    cx = _load_complex(args.input)
    if isinstance(cx, DoubleComplex):
        cx = total(cx)
    payload = {
        "betti": {str(k): d for k, d in betti_numbers(cx).items()},
        "euler": euler_characteristic(cx),
    }
    _emit(payload, args.format)
    return 0


def _cmd_spectral(args) -> int:
    cx = _need_double(args.input)
    if args.pages is not None and args.pages < 1:
        raise PreconditionViolation(f"page count must be >= 1, got {args.pages}")
    stable = stabilization_index(cx)
    last = args.pages if args.pages is not None else stable
    pages = [page(cx, r).to_json() for r in range(1, last + 1)]
    lim = limit_page(cx)
    payload = {
        "stable_at": stable,
        "pages": pages,
        "limit": {f"{p},{q}": d for (p, q), d in lim.dims().items()},
    }
    _emit(payload, args.format)
    return 0


def _cmd_truncate(args) -> int:
    cx = _need_double(args.input)
    window = _parse_window(args.window)
    cut = truncate(cx, window)
    if args.emit:
        # complex dumps are always JSON so they pipe back in
        _emit(cut.to_json(), "json")
        return 0
    payload = {
        "window": list(window),
        "dims": {f"{p},{q}": d for (p, q), d in cut.dims().items()},
        "hyper": {str(k): d for k, d in hyper_dims(cx, window).items()},
    }
    _emit(payload, args.format)
    return 0


def _cmd_hodge(args) -> int:
    if args.top is not None and args.top < 0:
        raise PreconditionViolation(f"--top must be >= 0, got {args.top}")
    cx = _need_double(args.input)
    payload = {
        "degree": args.degree,
        "filtration": hodge_filtration_dims(cx, args.degree, args.top),
    }
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    if args.runs < 1:
        raise PreconditionViolation(f"--runs must be >= 1, got {args.runs}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(n, args.seed, args.runs) for n in names]
    if args.format == "json":
        _emit({"ok": all(r.ok for r in reports),
               "suites": {r.name: r.to_json() for r in reports}}, "json")
    elif args.format == "csv":
        print("suite,check,degree,lhs,rhs,pass")
        for rep in reports:
            for j in (line.to_json() for line in rep.lines):
                row = (j["check"], j["degree"], j["lhs"], j["rhs"], str(j["pass"]).lower())
                print(",".join([rep.name] + [str(c).replace(",", ";") for c in row]))
    else:
        for rep in reports:
            print(rep.summary())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_predict(args) -> int:
    window = _parse_window(args.window)
    x = _parse_model(args.x)
    payload = {"predictor": args.predictor, "window": list(window),
               "degree": args.degree}
    if args.predictor == "kunneth":
        value = kunneth_predict(x, _parse_model(args.y), window, args.degree)
    elif args.predictor == "leray-hirsch":
        value = leray_hirsch_predict(
            x, window, args.degree, _parse_classes(args.classes)
        )
    elif args.predictor == "projective":
        value = projective_bundle_predict(x, window, args.degree, args.rank)
    else:
        # the library's UserWarning as one line, without its source line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = blowup_predict(
                x, _parse_model(args.y), window, args.degree, args.codim
            )
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    payload["value"] = value
    _emit(payload, args.format)
    return 0


def _cmd_model(args) -> int:
    if args.kind == "product":
        model = product_model(_parse_model(args.left), _parse_model(args.right))
    else:
        model = _model(args.kind, getattr(args, "n", None), args.twist_rank,
                       getattr(args, "builtin", None), getattr(args, "spec", None))
    if args.info:
        payload = {
            "n": model.n,
            "twist_rank": model.twist_rank,
            "dims": {f"{p},{q}": d for (p, q), d in model.complex.dims().items()},
        }
        _emit(payload, args.format)
    else:
        _emit(model.complex.to_json(), "json")
    return 0


# -- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectra-dr",
        description="Exact rational cohomology of bounded (double) complexes.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def fmt(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")

    sp = sub.add_parser("cohomology", help="betti numbers of a complex")
    sp.add_argument("input", help="JSON file or - for stdin")
    fmt(sp)
    sp.set_defaults(fn=_cmd_cohomology)

    sp = sub.add_parser("spectral", help="column-filtration spectral pages")
    sp.add_argument("input")
    sp.add_argument("--pages", type=int, default=None,
                    help="how many pages to print (default: through stability)")
    fmt(sp)
    sp.set_defaults(fn=_cmd_spectral)

    sp = sub.add_parser("truncate", help="column window of a double complex")
    sp.add_argument("input")
    sp.add_argument("--window", required=True, metavar="S,T")
    sp.add_argument("--emit", action="store_true",
                    help="print the truncated complex JSON instead of a summary")
    fmt(sp)
    sp.set_defaults(fn=_cmd_truncate)

    sp = sub.add_parser("hodge", help="filtration image dimensions")
    sp.add_argument("input")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--top", type=int, default=None,
                    help="top column of the window (default: highest column)")
    fmt(sp)
    sp.set_defaults(fn=_cmd_hodge)

    sp = sub.add_parser("verify", help="run randomized verification suites")
    sp.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--runs", type=int, default=100)
    fmt(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("predict", help="closed-form dimension predictors")
    sp.add_argument("predictor",
                    choices=("kunneth", "leray-hirsch", "projective", "blowup"))
    sp.add_argument("--x", required=True, help="model descriptor")
    sp.add_argument("--y", help="second model (kunneth, blowup)")
    sp.add_argument("--window", required=True, metavar="S,T")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--classes", help="leray-hirsch classes 'u,v;u,v;...'")
    sp.add_argument("--rank", type=int, default=2, help="projective bundle rank")
    sp.add_argument("--codim", type=int, default=2, help="blowup codimension")
    fmt(sp)
    sp.set_defaults(fn=_cmd_predict)

    sp = sub.add_parser("model", help="build a model double complex")
    kinds = sp.add_subparsers(dest="kind", required=True)
    for kind in ("torus", "lie", "product"):
        sk = kinds.add_parser(kind)
        if kind != "product":  # a product's twist is in its descriptors
            sk.add_argument("--twist-rank", type=int, default=1)
        sk.add_argument("--info", action="store_true",
                        help="print a summary instead of the complex JSON")
        fmt(sk)
        sk.set_defaults(fn=_cmd_model, kind=kind)
        if kind == "torus":
            sk.add_argument("--n", type=int, required=True)
        elif kind == "lie":
            sk.add_argument("--builtin", choices=sorted(BUILTIN_SPECS))
            sk.add_argument("--spec", help="spec JSON file")
        else:
            sk.add_argument("--left", required=True, help="model descriptor")
            sk.add_argument("--right", required=True, help="model descriptor")
    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs more than most
    commands, and its prog is fixed, so every main call can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    missing = []
    if getattr(args, "predictor", None) in ("kunneth", "blowup") and not args.y:
        missing.append("--y")
    if getattr(args, "predictor", None) == "leray-hirsch" and not args.classes:
        missing.append("--classes")
    try:
        if missing:
            raise ParseError(f"predictor {args.predictor!r} needs {' and '.join(missing)}")
        return args.fn(args)
    except (ParseError, ValidationError, PreconditionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WitnessFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
