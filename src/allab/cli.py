"""Command-line front end.

Exit codes: 0 success; 1 unexpected failure or a failed gradient check;
2 configuration errors, an output file that cannot be written among them;
3 malformed input files; 4 training divergence;
5 an invalid pool operation (for example acquiring from an empty pool).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import parse_config, config_to_json
from .errors import ConfigError, FormatError, PoolError, TrainingDiverged
from .experiment import (
    SCORES_FILE,
    cannot_write,
    compute_curves,
    load_dataset,
    make_output_dir,
    read_results_csv,
    run_experiment,
    write_curves_csv,
    write_results_csv,
    write_results_json,
)
from .gradcheck import DEFAULT_TOL, run_gradcheck

OUT_ENV = "ALLAB_OUT"  # default output directory when --out is not given
# what ``allab run`` writes into the output directory once every cell has run;
# label_names.json only for a CSV dataset whose labels are names
RUN_OUTPUTS = ("results.csv", "results.json", "resolved_config.json", "label_names.json")


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, so a bad count fails before any work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allab",
        description="Pool-based active-learning experiments with kernel-regularized training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment JSON")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument(
        "--out", default=None, help=f"output directory (default: ${OUT_ENV} or the config value)"
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="accepted (must be >= 1) and ignored: every cell runs in the main thread",
    )

    grad = sub.add_parser("gradcheck", help="finite-difference check of all analytic gradients")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="poison the first analytic gradient entry by this amount (the check must then fail)",
    )

    curves = sub.add_parser("curves", help="summarize a results CSV into learning curves")
    curves.add_argument("--results", required=True, help="results CSV from a run")
    curves.add_argument("--out", required=True, help="where to write the curve summary CSV")
    return parser


def _check_outputs(out: Path, names) -> None:
    """Fail before any data is loaded when one of the files the run writes is
    a directory or may not be written."""
    for path in (out / name for name in names):
        if path.is_dir():
            raise cannot_write(path, "Is a directory")
        if not os.access(path if path.exists() else out, os.W_OK):
            raise cannot_write(path, "Permission denied")


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    out_override = args.out if args.out is not None else os.environ.get(OUT_ENV)
    if out_override is not None:
        cfg = replace(cfg, output_dir=out_override)
    out = make_output_dir(cfg)
    names = RUN_OUTPUTS if cfg.dataset.kind == "csv" else RUN_OUTPUTS[:-1]
    if cfg.dump_scores:  # one per cell and round but the last, written as the run goes
        names += tuple(SCORES_FILE.format(method=m, repeat=r, t=t) for m in cfg.methods
                       for r in range(cfg.repeats) for t in range(cfg.rounds - 1))
    _check_outputs(out, names)

    loaded = [load_dataset(cfg)]
    label_names = loaded[0].label_names
    # the run gets the only reference, so it frees the raw features once partitioned
    logs = run_experiment(cfg, jobs=args.jobs, progress=print, dataset=loaded.pop())

    try:
        write_results_csv(logs, out / "results.csv")
        write_results_json(logs, cfg, out / "results.json")
        (out / "resolved_config.json").write_text(config_to_json(cfg))
        if label_names:
            mapping = {"class_ids": {name: i for i, name in enumerate(label_names)}}
            (out / "label_names.json").write_text(json.dumps(mapping, indent=2) + "\n")
    except OSError as e:
        raise cannot_write(e.filename or out, e.strerror or e) from None
    print(f"wrote {out / 'results.csv'} ({len(logs)} rows)")
    return 0


def _cmd_gradcheck(args) -> int:
    records, ok = run_gradcheck(seed=args.seed, perturb=args.perturb)
    by_suite: dict[str, float] = {}
    for r in records:
        by_suite[r.suite] = max(by_suite.get(r.suite, 0.0), r.rel_err)
    for suite in sorted(by_suite):
        print(f"{suite:>12}: max rel err {by_suite[suite]:.3e}")
    worst = max(by_suite.values())
    verdict = "PASS" if ok else "FAIL"
    print(f"gradcheck {verdict}: {len(records)} gradients, tol {DEFAULT_TOL:.0e}, worst {worst:.3e}")
    return 0 if ok else 1


def _cmd_curves(args) -> int:
    rows = read_results_csv(args.results)
    curves = compute_curves(rows)
    try:
        write_curves_csv(curves, args.out)
    except OSError as e:
        raise ConfigError(f"--out: cannot write {args.out!r}: {e.strerror or e}") from None
    print(f"wrote {args.out} ({len(curves)} rows)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        return _cmd_curves(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 3
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 4
    except PoolError as e:
        print(f"pool error: {e}", file=sys.stderr)
        return 5
    except KeyboardInterrupt:
        raise
    except Exception as e:  # anything else is a bug, not a user error
        print(f"unexpected error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
