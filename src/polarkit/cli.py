"""Command-line front end.

Subcommands: ``optimize`` (run the differential-evolution search), ``pattern``
(generate baseline patterns or round-trip pattern files), ``evaluate``
(BLER/BER sweep for one pattern), and ``compare`` (matched-seed sweep across
several patterns).  Exit codes: 0 success, 1 usage, 2 I/O, 3 domain
validation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import CodeSpec
from .evolution import DeConfig, de_optimize
from .montecarlo import (BerReport, ChannelModel, DecoderConfig, SimulationRun,
                         WorkerPool, derive_seed, matched_information_set,
                         run_batch)
from .puncturing import (PuncturingPattern, load_pattern, qup_pattern,
                         rqup_pattern, save_pattern)

CSV_HEADER = ["ebn0_db", "blocks", "block_errors", "bit_errors", "bler", "ber", "seed"]
EVAL_INCREMENT = 20000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CurvePoint:
    """One (pattern, SNR) point of a sweep and its tallies so far."""

    label: str
    pattern: PuncturingPattern
    info_set: tuple[int, ...]
    ebn0_db: float
    snr_index: int
    blocks: int = 0
    block_errors: int = 0
    bit_errors: int = 0
    increments: int = 0

    def plan(self, decoder: DecoderConfig, budget: int, seed: int) -> SimulationRun:
        """The point's next increment: at most ``EVAL_INCREMENT`` frames of
        the budget left, seeded by (seed, SNR index, increment)."""
        return SimulationRun.plan(
            CodeSpec(self.pattern.n_mother, len(self.info_set)), self.pattern,
            self.info_set, ChannelModel.awgn(self.ebn0_db), decoder=decoder,
            trials=min(EVAL_INCREMENT, budget - self.blocks),
            seed=derive_seed(seed, "sweep", self.snr_index, self.increments))

    def add(self, report: BerReport) -> None:
        self.blocks += report.trials
        self.block_errors += report.block_errors
        self.bit_errors += int(report.per_bit_errors.sum())
        self.increments += 1

    def row(self, seed: int) -> list:
        return [self.label, self.ebn0_db, self.blocks, self.block_errors,
                self.bit_errors, self.block_errors / self.blocks,
                self.bit_errors / (self.blocks * len(self.info_set)), seed]


def _at_least(low: int):
    """argparse type: an int of at least ``low``."""
    def at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return at_least


# optimize's defaults are the search's own
_DE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(DeConfig)}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polarkit",
                     description="Punctured polar code design and evaluation")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_opt = sub.add_parser("optimize", help="search for a puncturing pattern")
    p_opt.add_argument("--n", type=int, required=True, help="mother code length N")
    p_opt.add_argument("--k", type=int, required=True, help="information bits K")
    p_opt.add_argument("--np", dest="n_p", type=_at_least(1), required=True,
                       help="number of punctured bits")
    p_opt.add_argument("--ebn0", type=float, required=True,
                       help="design Eb/N0 in dB for the search")
    p_opt.add_argument("--pop-size", type=_at_least(4), default=50,
                       help="population size, at least 4")
    p_opt.add_argument("--cr", type=float, default=_DE_DEFAULTS["crossover"],
                       help="crossover rate")
    p_opt.add_argument("--f", type=float, default=_DE_DEFAULTS["scale"],
                       help="mutation scale factor")
    p_opt.add_argument("--max-iters", type=_at_least(1),
                       default=_DE_DEFAULTS["max_iters"])
    p_opt.add_argument("--trials", type=_at_least(1), default=_DE_DEFAULTS["trials"],
                       help="Monte Carlo trials per objective evaluation")
    p_opt.add_argument("--confirm-trials", type=_at_least(0),
                       default=_DE_DEFAULTS["confirm_trials"],
                       help="trials for the final confirmation pass (0 disables)")
    p_opt.add_argument("--seed", type=_at_least(0), default=0)
    p_opt.add_argument("--full-space", action="store_true",
                       help="search over all N coded bits instead of the reduced space")
    p_opt.add_argument("--in-place", action="store_true",
                       help="apply replacements row by row within a generation")
    p_opt.add_argument("--fresh-incumbents", action="store_true",
                       help="re-evaluate incumbents under each generation's seed")
    p_opt.add_argument("--workers", type=_at_least(1), default=1,
                       help="processes evaluating Monte Carlo chunks; one pool "
                            "serves the whole search")
    p_opt.add_argument("--out", required=True, help="pattern file to write")
    p_opt.add_argument("--log", default=None,
                       help="run log path (default: <out>.log)")

    p_pat = sub.add_parser("pattern", help="emit a baseline or existing pattern")
    p_pat.add_argument("--method", choices=["qup", "rqup", "file"], required=True)
    p_pat.add_argument("--n", type=int)
    p_pat.add_argument("--k", type=int)
    p_pat.add_argument("--np", dest="n_p", type=_at_least(1))
    p_pat.add_argument("--ebn0", type=float,
                       help="design Eb/N0 in dB for information-set selection")
    p_pat.add_argument("--in", dest="infile", help="input file for --method file")
    p_pat.add_argument("--out", required=True)

    for name in ("evaluate", "compare"):
        p = sub.add_parser(name, help=f"{name} BLER/BER over an SNR sweep")
        if name == "evaluate":
            p.add_argument("--pattern", required=True, help="pattern file")
        else:
            p.add_argument("--patterns", nargs="+", required=True,
                           help="two or more pattern files")
        p.add_argument("--ebn0", required=True,
                       help="comma-separated Eb/N0 sweep in dB, e.g. '6,7,8'")
        p.add_argument("--decoder", choices=["sc", "scl"], default="sc")
        p.add_argument("--list-size", type=_at_least(1), default=None,
                       help="paths kept by --decoder scl (default 8)")
        p.add_argument("--crc", type=int, default=0, choices=[0, 16])
        p.add_argument("--trials", type=_at_least(1), default=100000,
                       help="block budget per SNR point")
        p.add_argument("--max-block-errors", type=_at_least(1), default=200,
                       help="stop an SNR point early after this many block errors")
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--workers", type=_at_least(1), default=1,
                       help="processes simulating frames; one pool serves every point")
        p.add_argument("--out", required=True, help="CSV file to write")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (optimize, pattern, "
                             "evaluate, compare)")
        handler = {
            "optimize": _cmd_optimize,
            "pattern": _cmd_pattern,
            "evaluate": _cmd_evaluate,
            "compare": _cmd_compare,
        }[args.command]
        _check_writable(args.out)
        handler(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _check_writable(*paths: str) -> None:
    """Refuse, as an I/O error, an output path whose directory is missing or
    that is itself a directory.  ``main`` calls this on ``--out`` before any
    command runs, and ``optimize`` on its log path before it searches, so such
    a path costs no search or simulation and leaves no file behind."""
    for path in map(Path, paths):
        if path.is_dir():
            raise IsADirectoryError(f"output path {str(path)!r} is a directory")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"output directory {str(path.parent)!r} does not exist")


def _cmd_optimize(args) -> None:
    log_path = args.log if args.log is not None else f"{args.out}.log"
    _check_writable(log_path)
    spec = CodeSpec(args.n, args.k)
    config = DeConfig(
        pop_size=args.pop_size,
        scale=args.f,
        crossover=args.cr,
        max_iters=args.max_iters,
        reduced_space=not args.full_space,
        ebn0_db=args.ebn0,
        trials=args.trials,
        master_seed=args.seed,
        in_place=args.in_place,
        fresh_incumbents=args.fresh_incumbents,
        confirm_trials=args.confirm_trials or None,
        workers=args.workers,
    )
    result = de_optimize(spec, args.n_p, config, log_path=log_path)
    provenance = (
        f"differential-evolution search: n={args.n} k={args.k} np={args.n_p} "
        f"ebn0_db={args.ebn0} pop_size={args.pop_size} cr={args.cr} f={args.f} "
        f"max_iters={args.max_iters} trials={args.trials} "
        f"confirm_trials={args.confirm_trials} seed={args.seed} "
        f"reduced_space={not args.full_space} in_place={args.in_place} "
        f"fresh_incumbents={args.fresh_incumbents} "
        f"generations={result.generations} evaluations={result.evaluations} "
        f"best_objective={result.best_objective!r} "
        f"confirmed_objective={result.confirmed_objective!r}"
    )
    save_pattern(args.out, result.pattern, info_set=result.info_set,
                 provenance=provenance)
    print(f"wrote {args.out} (pattern of {result.pattern.n_p} bits, "
          f"objective {result.best_objective:.6g}); log: {log_path}")


def _cmd_pattern(args) -> None:
    if args.method == "file":
        if not args.infile:
            raise UsageError("--method file requires --in")
        pattern, info_set, provenance = load_pattern(args.infile)
        save_pattern(args.out, pattern, info_set=info_set, provenance=provenance)
        print(f"wrote {args.out} (n={pattern.n_mother}, np={pattern.n_p})")
        return
    for flag in ("n", "k", "n_p", "ebn0"):
        if getattr(args, flag) is None:
            raise UsageError(f"--method {args.method} requires --{flag.replace('_p', 'p')}")
    spec = CodeSpec(args.n, args.k)
    pattern = qup_pattern(spec, args.n_p) if args.method == "qup" \
        else rqup_pattern(spec, args.n_p)
    rate = spec.k_info / pattern.n_transmitted
    info_set = matched_information_set(spec, pattern, ChannelModel.awgn(args.ebn0))
    provenance = (f"{args.method} baseline: n={args.n} k={args.k} np={args.n_p} "
                  f"design_ebn0_db={args.ebn0} (information set from the Gaussian "
                  f"approximation at effective rate {rate!r})")
    save_pattern(args.out, pattern, info_set=info_set, provenance=provenance)
    print(f"wrote {args.out}: indices {list(pattern.indices)}")


def _parse_snrs(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--ebn0 expects comma-separated numbers: {exc}") from exc


def _decoder(args) -> DecoderConfig:
    if args.decoder == "scl":
        return DecoderConfig(list_size=args.list_size or 8, crc_len=args.crc)
    if args.crc:
        raise UsageError("--crc requires --decoder scl")
    if args.list_size is not None:
        raise UsageError("--list-size requires --decoder scl")
    return DecoderConfig()


def _sweep(paths: list[str], args) -> list[list]:
    """Rows, pattern by pattern and labelled by file stem, of the sweep of
    ``args.ebn0`` over the pattern files ``paths``.

    Every file and every point's first increment are checked before any
    frame is simulated.  The points then run in rounds on one pool: a round
    sends the next increment of every point still running to ``run_batch``
    in one call.  A point leaves once it reaches ``--trials``
    or ``--max-block-errors``.  It tallies its own increments in order, so the
    rows depend neither on the other points nor on ``--workers``.
    """
    snrs = _parse_snrs(args.ebn0)
    loaded = [load_pattern(path)[:2] for path in paths]
    sizes = {pattern.n_mother for pattern, _ in loaded}
    if len(sizes) > 1:
        raise ValueError(f"pattern files disagree on N: {sorted(sizes)}")
    for path, (_, info_set) in zip(paths, loaded):
        if info_set is None:
            raise ValueError(
                f"pattern file {path!r} lacks an info_set; generate it with "
                f"'polarkit pattern' or 'polarkit optimize'")
    decoder = _decoder(args)
    points = [CurvePoint(Path(path).stem, pattern, info_set, ebn0, snr_index)
              for path, (pattern, info_set) in zip(paths, loaded)
              for snr_index, ebn0 in enumerate(snrs)]
    live, runs = points, [p.plan(decoder, args.trials, args.seed) for p in points]
    with WorkerPool(args.workers) as pool:
        while live:
            for point, report in zip(live, run_batch(runs, pool)):
                point.add(report)
            live = [p for p in live
                    if p.blocks < args.trials and p.block_errors < args.max_block_errors]
            runs = [p.plan(decoder, args.trials, args.seed) for p in live]
    return [p.row(args.seed) for p in points]


def _write_rows(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_evaluate(args) -> None:
    rows = [row[1:] for row in _sweep([args.pattern], args)]
    _write_rows(args.out, CSV_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} SNR points)")


def _cmd_compare(args) -> None:
    if len(args.patterns) < 2:
        raise ValueError("compare needs at least two pattern files")
    rows = _sweep(args.patterns, args)
    _write_rows(args.out, ["pattern"] + CSV_HEADER, rows)
    print(f"wrote {args.out} ({len(args.patterns)} patterns x "
          f"{len(rows) // len(args.patterns)} SNR points)")


if __name__ == "__main__":
    sys.exit(main())
