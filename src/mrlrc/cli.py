"""Command-line surface: construct, verify, encode, decode, simulate, bounds.

Exit codes: 0 success / verification pass, 1 usage or I/O problem,
2 verification failure (with the witness printed).  Commands raise on
bad input; ``main`` alone turns an exception into an ``error:`` line and
exit 1, and argparse's usage errors exit 1 too.  Word files use
whitespace-separated canonical integer encodings with '?' marking an
erased symbol; message files are whitespace-separated integers.  All
randomness flows from the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions, simulate, verify
from .topology import make_topology
from .verify import table1_row

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this CLI reserves 2 for
    # verification failures, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _topology_args(sub):
    """The topology flags, then exactly one of --k / --h."""
    sub.add_argument("--r", type=int, required=True, help="locality")
    sub.add_argument("--delta", type=int, required=True,
                     help="local distance parameter")
    sub.add_argument("--t", type=int, required=True, help="core size")
    sub.add_argument("--g", type=int, required=True, help="group count")
    sub.add_argument("--N", type=int, required=True, help="availability")
    size = sub.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="dimension (alternative to --h)")
    size.add_argument("--h", type=int,
                      help="heavy parities (alternative to --k)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mrlrc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="build a code bundle")
    p.add_argument("--kind", choices=constructions.KINDS, required=True)
    _topology_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", default="bundle", help="bundle file prefix")

    p = subs.add_parser("verify", help="verify the MR property of a bundle")
    p.add_argument("bundle")
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    p.add_argument("--side", choices=("generator", "parity"),
                   help="exhaustive route (default generator)")
    p.add_argument("--trials", type=int, help="sampled trials (default 1000)")
    p.add_argument("--seed", type=int, help="sampled seed (default 0)")
    p.add_argument("--report", help="write the JSON report here")

    p = subs.add_parser("encode", help="encode a length-k message file")
    p.add_argument("bundle")
    p.add_argument("message")
    p.add_argument("--out", help="codeword file (default: stdout)")

    p = subs.add_parser("decode", help="complete a word file with '?' erasures")
    p.add_argument("bundle")
    p.add_argument("word")
    p.add_argument("--out", help="codeword file (default: stdout)")

    p = subs.add_parser("simulate", help="run the seeded failure simulator")
    p.add_argument("bundle")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=simulate.MODELS, required=True)
    p.add_argument("--failures", type=int,
                   help="failed nodes per trial (uniform_nodes)")
    p.add_argument("--extra", type=int,
                   help="max extra erasures (adversarial_maximal; default h)")
    p.add_argument("--report", help="write the JSON report here")

    p = subs.add_parser("bounds", help="field-size table and lower bound")
    _topology_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _load_bundle(path: str):
    try:
        return constructions.read_bundle(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load bundle {path}: {exc}") from exc


def _make_topology(args):
    return make_topology(args.r, args.delta, args.t, args.g, args.N)


def _bounds_text(row, as_json: bool = False) -> str:
    """The bounds report, built whole before any of it is written."""
    try:
        if as_json:
            return json.dumps(row, indent=2, sort_keys=False)
        lines = [f"field sizes for k={row['k']}, h={row['h']} (ascending):"]
        applicable = [(kind, row[kind]) for kind in constructions.KINDS
                      if "inapplicable" not in row[kind]]
        for kind, cell in sorted(applicable, key=lambda kc: kc[1]["bound_value"]):
            star = "" if cell["exact"] else f" (realized {cell['field_size']})"
            lines.append(f"  {kind}: q={cell['q']} m={cell['m']} "
                         f"bound={cell['bound_value']}{star}")
        for kind in constructions.KINDS:
            if "inapplicable" in row[kind]:
                lines.append(f"  {kind}: inapplicable ({row[kind]['inapplicable']})")
        lo, hi = row["ell_bounds"]
        lines.append(f"  ell bounds: [{lo}, {hi}]")
        lb = row["lower_bound"]
        if lb["regime"] == "none":
            lines.append("  lower bound: regime none (needs 2 <= h <= g)")
        else:
            flag = " [vacuous]" if lb["vacuous"] else ""
            lines.append(f"  lower bound (regime {lb['regime']}): {lb['value']} "
                         f"-> floor {lb['floor']}{flag}")
        return "\n".join(lines)
    except ValueError:
        # a bound within float error of the digit cap is computed, then refused here
        raise constructions.BoundTooLong() from None


def cmd_construct(args) -> int:
    topo = _make_topology(args)
    code = constructions.construct(topo, args.kind, k=args.k, h=args.h)
    text = _bounds_text(table1_row(topo, h=code.h))
    path = constructions.write_bundle(code, args.out, name=args.name)
    print(f"wrote {path}")
    print(f"n={code.n} k={code.k} h={code.h} "
          f"field GF({code.plan.q}^{code.plan.m}) of order {code.plan.field_size}")
    print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    for flag, mode in (("side", "exhaustive"), ("trials", "sampled"), ("seed", "sampled")):
        if getattr(args, flag) is not None and args.mode != mode:
            raise ValueError(f"--{flag} applies to --mode {mode} only, not {args.mode}")
    code = _load_bundle(args.bundle)
    if args.mode == "exhaustive":
        report = verify.verify_mr_exhaustive(code, side=args.side or "generator")
    else:
        report = verify.verify_mr_sampled(
            code, 1000 if args.trials is None else args.trials, args.seed or 0)
    if args.report:
        with open(args.report, "w", encoding="ascii", newline="\n") as fh:
            fh.write(report.to_json())
    print(f"{report.code_id}: {report.mode} "
          f"{'PASS' if report.passed else 'FAIL'} "
          f"({report.patterns_checked} patterns, "
          f"{len(report.failures)} failures)")
    if not report.passed:
        first = report.failures[0]
        print(f"witness pattern: {list(first.pattern)}")
        print(f"detail: {first.detail}")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _read_symbols(path: str, allow_erasures: bool):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        raise ValueError(f"{path}: not an ASCII file")
    out = []
    for tok in data.decode("ascii").split():
        if tok == "?":
            if not allow_erasures:
                raise ValueError("'?' is only valid in decode word files")
            out.append(None)
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"{path}: {tok!r} is not an integer symbol") from None
    return out


def _write_symbols(values, out_path: str | None) -> None:
    text = " ".join(str(v) for v in values) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_encode(args) -> int:
    code = _load_bundle(args.bundle)
    msg = _read_symbols(args.message, allow_erasures=False)
    _write_symbols(constructions.encode(code, msg), args.out)
    return EXIT_OK


def cmd_decode(args) -> int:
    code = _load_bundle(args.bundle)
    word = _read_symbols(args.word, allow_erasures=True)
    decoded = verify.decode_erasures(code, word)
    if decoded is None:
        erased = [i + 1 for i, v in enumerate(word) if v is None]
        defect = verify.erasure_rank_defect(code, erased)
        print(f"unrecoverable: rank defect {defect} on {len(erased)} erasures")
        return EXIT_VERIFY_FAIL
    _write_symbols(decoded, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    code = _load_bundle(args.bundle)
    cfg = simulate.SimConfig(trials=args.trials, model=args.model,
                             seed=args.seed, failures=args.failures,
                             extra=args.extra)
    report = simulate.run_simulation(code, cfg)
    if args.report:
        with open(args.report, "w", encoding="ascii", newline="\n") as fh:
            fh.write(report.to_json())
    print(f"{args.model}: trials={report.trials} "
          f"local={report.local_repair} global={report.global_repair} "
          f"loss={report.data_loss} reads/repaired={report.reads_per_repaired}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    topo = _make_topology(args)
    print(_bounds_text(table1_row(topo, k=args.k, h=args.h), args.json))
    return EXIT_OK


_COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except verify.InvalidInput as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
