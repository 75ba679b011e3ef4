"""Command-line interface: encode, decode, stats, gen, params.

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 corrupt stream,
5 parameter error. File arguments accept '-' for the standard streams.
Reports for commands that produce data go to stderr so piped output stays
clean; --json switches reports to a single JSON document.
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import analysis, coder, dictionary
from .errors import CorruptStreamError, ParameterError
from .params import DISTRIBUTIONS, derive_params


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _text_lines(section: dict) -> list[str]:
    """name=value for each key in order; floats as .6f, None values skipped."""
    return [f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in section.items() if v is not None]


def _emit_report(doc: dict, text_lines, args, stream) -> None:
    if args.json:
        print(json.dumps(doc), file=stream)
    else:
        for line in text_lines:
            print(line, file=stream)


def _params_doc(params) -> dict:
    return {"sigma": params.sigma, "lambda": params.lam, "c": params.c,
            "ell": params.ell, "threshold": params.threshold,
            "l_max": params.l_max, "width": params.width}


def _cmd_encode(args) -> int:
    params = derive_params(args.sigma, args.lam, args.c)
    symbols = coder.read_symbol_array(_read_bytes(args.input), args.sigma,
                                      args.symbol_bytes)
    blob, report = coder.encode_to_bytes(params, symbols)
    _write_bytes(args.output, blob)
    doc = {"command": "encode", "params": _params_doc(params),
           "report": asdict(report)}
    lines = _text_lines(doc["report"])
    if args.verify_bound:
        stats = analysis.EntropyStats.from_symbols(symbols)
        bound = analysis.check_bound(report, stats, params)
        doc["stats"] = stats.to_dict()
        doc["bound"] = asdict(bound)
        lines += _text_lines(doc["stats"]) + _text_lines(doc["bound"])
        lines.append(f"bound_check={'PASS' if bound.passed else 'FAIL'}")
    _emit_report(doc, lines, args, sys.stderr)
    if args.verify_bound and not bound.passed:
        return 1
    return 0


def _cmd_decode(args) -> int:
    data = _read_bytes(args.input)
    params, _n = coder.read_header(data)
    for name, given, actual in (("sigma", args.sigma, params.sigma),
                                ("lambda", args.lam, params.lam),
                                ("c", args.c, params.c)):
        if given is not None and given != actual:
            raise ParameterError(
                f"--{name} {given} contradicts the stream header ({actual})")
    raw = bytearray()  # nothing is written unless the whole stream decodes
    for symbols, report in coder.decode_chunks(data):
        raw += coder.write_symbols(symbols, params.sigma, args.symbol_bytes)
    _write_bytes(args.output, raw)
    doc = {"command": "decode", "params": _params_doc(params),
           "backend": dictionary.choose_backend(None, params.sigma),
           "report": asdict(report)}
    _emit_report(doc, _text_lines(doc["report"]), args, sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    symbols = coder.read_symbol_array(_read_bytes(args.input), args.sigma,
                                      args.symbol_bytes)
    stats = analysis.EntropyStats.from_symbols(symbols)
    doc = {"command": "stats", "sigma": args.sigma, "stats": stats.to_dict()}
    _emit_report(doc, _text_lines(doc["stats"]), args, sys.stdout)
    return 0


def _cmd_gen(args) -> int:
    from . import corpus  # numpy; the other commands never load it

    arr = corpus.generate(args.dist, args.sigma, args.n, args.seed, s=args.s,
                          states=args.states, stickiness=args.stickiness)
    _write_bytes(args.output, coder.write_symbols(arr, args.sigma, args.symbol_bytes))
    return 0


def _cmd_params(args) -> int:
    params = derive_params(args.sigma, args.lam, args.c)
    delta = analysis.delta_term(params.lam, params.c)
    doc = {"command": "params", "params": _params_doc(params), "delta": delta}
    lines = [f"{k}={v}" for k, v in _params_doc(params).items()]
    lines.append(f"delta={delta:.6f}")
    _emit_report(doc, lines, args, sys.stdout)
    return 0


def _add_coder_args(p, required: bool):
    # decode only checks these against the header, so there they stay optional
    p.add_argument("--sigma", type=int, required=required,
                   help="alphabet size (symbols are 0..sigma-1)")
    p.add_argument("--lambda", dest="lam", type=float,
                   default=2.0 if required else None,
                   help="compression/memory trade-off, >= 1 (default 2)")
    p.add_argument("--c", type=int, default=10 if required else None,
                   help="window scale constant, >= 1 (default 10)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swsc",
        description="Sliding-window adaptive Shannon coder for large alphabets.")
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a raw symbol file")
    enc.add_argument("input", nargs="?", default="-")
    enc.add_argument("output", nargs="?", default="-")
    _add_coder_args(enc, required=True)
    enc.add_argument("--symbol-bytes", type=int, choices=(1, 2, 4), default=None,
                     help="force the raw symbol width instead of the smallest fit")
    enc.add_argument("--verify-bound", action="store_true",
                     help="check the encoding-length bound after encoding")
    enc.add_argument("--json", action="store_true")

    dec = sub.add_parser("decode", help="decompress a stream")
    dec.add_argument("input", nargs="?", default="-")
    dec.add_argument("output", nargs="?", default="-")
    _add_coder_args(dec, required=False)
    dec.add_argument("--symbol-bytes", type=int, choices=(1, 2, 4), default=None)
    dec.add_argument("--json", action="store_true")

    st = sub.add_parser("stats", help="entropy statistics of a raw symbol file")
    st.add_argument("input", nargs="?", default="-")
    st.add_argument("--sigma", type=int, required=True)
    st.add_argument("--symbol-bytes", type=int, choices=(1, 2, 4), default=None)
    st.add_argument("--json", action="store_true")

    gen = sub.add_parser("gen", help="generate a reproducible test corpus")
    gen.add_argument("output", nargs="?", default="-")
    gen.add_argument("--dist", choices=DISTRIBUTIONS, required=True)
    gen.add_argument("--sigma", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--s", type=float, default=1.0, help="zipf exponent")
    gen.add_argument("--states", type=int, default=8, help="markov state count")
    gen.add_argument("--stickiness", type=float, default=0.9,
                     help="markov stay probability")
    gen.add_argument("--symbol-bytes", type=int, choices=(1, 2, 4), default=None)

    par = sub.add_parser("params", help="print the derived coder constants")
    _add_coder_args(par, required=True)
    par.add_argument("--json", action="store_true")
    return ap


_COMMANDS = {"encode": _cmd_encode, "decode": _cmd_decode, "stats": _cmd_stats,
             "gen": _cmd_gen, "params": _cmd_params}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParameterError as e:
        print(f"swsc: parameter error: {e}", file=sys.stderr)
        return 5
    except CorruptStreamError as e:
        print(f"swsc: corrupt stream: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"swsc: i/o error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
