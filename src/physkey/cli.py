"""Command-line surface: simulate / ingest / estimate / fit / validate / plan / extract.

All reports go to standard output as JSON; trace and series data are CSV.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import channel, hmm, protocol, stats
from .errors import PhyskeyError
from .quantize import BITS_PER_SAMPLE
from .traces import TraceFile, ingest_traces, trace_to_file


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_trace(path: str, role: str):
    tf = TraceFile.load(path)
    ids = tf.node_ids()
    if len(ids) != 1:
        raise PhyskeyError(f"{path}: expected a single node, found {ids}")
    return replace(tf.trace(ids[0]), node_id=role)


def _load_aligned(paths: dict, **options):
    """Load each role's single-node trace file and align them all with
    ``ingest_traces(..., **options)``; returns its (traces, report) pair."""
    return ingest_traces({role: _load_trace(path, role) for role, path in paths.items()},
                         **options)


class _Fields(dict):
    """A JSON object that records the dotted path of the last field read from
    it or from an object nested in it, in a one-item list they share."""

    def __init__(self, doc: dict, trail: list, prefix: str = ""):
        super().__init__(doc)
        self._trail, self._prefix = trail, prefix

    def __getitem__(self, key):
        path = f"{self._prefix}{key}"
        self._trail[:] = [path]
        value = super().__getitem__(key)
        return _Fields(value, self._trail, f"{path}.") if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key] if key in self else default


@contextmanager
def _json_object(path: str):
    """Yield the JSON object at path; bad JSON, a non-object, or a missing or
    mistyped field read in the block is a domain error naming the file, and
    a value of the wrong type also names its field."""
    trail = []
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        yield _Fields(doc, trail)
    except KeyError as exc:
        raise PhyskeyError(f"{path}: missing field {exc}") from None
    except (TypeError, AttributeError) as exc:
        field = f"field {trail[0]!r} has the wrong type: " if trail else ""
        raise PhyskeyError(f"{path}: {field}{exc}") from None
    except (ValueError, OverflowError) as exc:
        raise PhyskeyError(f"{path}: {exc}") from None


def _load_config(path: str) -> channel.ChannelConfig:
    with _json_object(path) as doc:
        if "calibrate" not in doc:
            return channel.ChannelConfig.from_dict(doc)
        cal = doc["calibrate"]
        rates = float(cal["entropy_rate"]), float(cal["word_error_rate"])
        levels = hmm.json_int(cal.get("levels", 9))
        seed = hmm.json_int(cal.get("seed", 2026))
    return channel.calibrate_to_reference_rates(*rates, levels=levels, seed=seed)


def _load_fits(path: str | None):
    if path is None:
        return protocol.REFERENCE_ENTROPY_FIT, protocol.REFERENCE_ERROR_FIT
    with _json_object(path) as doc:
        return hmm.LinearFit.from_dict(doc["g"]), hmm.LinearFit.from_dict(doc["e"])


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    if args.n is not None:
        config = replace(config, n=args.n)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    run = channel.simulate_run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in (run.alice, run.bob, run.eve):
        trace_to_file(trace).save(out / f"{trace.node_id}.csv")
    _emit({"n": config.n, "seed": config.seed,
           "files": [str(out / f"{t}.csv") for t in ("alice", "bob", "eve")],
           "calibration": config.calibration})
    return 0


def _cmd_ingest(args) -> int:
    eves = args.eve or []
    roles = [f"eve{i}" for i in range(len(eves))] if len(eves) > 1 else ["eve"]
    aligned, report = _load_aligned(
        {"alice": args.alice, "bob": args.bob, **dict(zip(roles, eves))},
        eve_filter=args.eve_filter, magnitude=args.magnitude)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for role, trace in aligned.items():
            trace_to_file(trace).save(out / f"{role}.csv")
        report["files"] = sorted(str(out / f"{r}.csv") for r in aligned)
    _emit(report)
    return 0


def _aligned_pair(alice_path: str, eve_path: str, magnitude: int):
    # ingest_traces aligns the 'alice' and 'bob' slots, so Eve's trace takes
    # the 'bob' slot, under which the report counts her dropped samples
    aligned, report = _load_aligned({"alice": alice_path, "bob": eve_path},
                                    magnitude=magnitude)
    return aligned["alice"], aligned["bob"], report


def _cmd_estimate_entropy(args) -> int:
    alice, eve, report = _aligned_pair(args.alice, args.eve, args.levels - 1)
    model = hmm.fit_hmm_from_traces(alice, eve, levels=args.levels,
                                    smoothing=args.smoothing)
    experiments = hmm.slice_experiments(model, eve.levels, args.slice)
    if not experiments:
        raise PhyskeyError(f"need at least {args.slice} aligned samples")
    est = hmm.estimate_avg_conditional_min_entropy(model, experiments)
    _emit({"estimate": est.to_dict(), "levels": args.levels,
           "slice": args.slice, "ingest": report})
    return 0


def _cmd_fit_growth(args) -> int:
    aligned, report = _load_aligned({"alice": args.alice, "bob": args.bob, "eve": args.eve},
                                    eve_filter=True, magnitude=args.levels - 1)
    alice, bob, eve = aligned["alice"], aligned["bob"], aligned["eve"]

    slice_len = args.slice_samples
    if args.step < 1:
        raise PhyskeyError(f"--step must be at least 1 to place a checkpoint, got {args.step}")
    if len(alice) < 2 * slice_len:
        raise PhyskeyError(f"need at least {2 * slice_len} aligned samples")
    model = hmm.fit_hmm_from_traces(alice, eve, levels=args.levels,
                                    smoothing=args.smoothing)
    experiments = hmm.slice_experiments(model, eve.levels, slice_len)
    n_slices = len(experiments)
    checkpoints = list(range(args.step, slice_len + 1, args.step))
    entropy = hmm.entropy_profile_batch(
        model, np.stack([e.symbols for e in experiments]), checkpoints)
    kept = n_slices * slice_len
    mismatch = (alice.levels[:kept] != bob.levels[:kept]).reshape(n_slices, slice_len)
    errors = np.cumsum(mismatch, axis=1)[:, np.array(checkpoints) - 1]
    g = hmm.fit_linear_growth(list(zip(checkpoints, entropy.mean(axis=0))))
    e = hmm.fit_linear_growth(list(zip(checkpoints, errors.mean(axis=0))))
    if args.out_csv:
        lines = ["n,entropy_mean,entropy_std,errors_mean,errors_std"]
        for i, n in enumerate(checkpoints):
            lines.append(f"{n},{entropy[:, i].mean():.6f},{entropy[:, i].std(ddof=1):.6f},"
                         f"{errors[:, i].mean():.6f},{errors[:, i].std(ddof=1):.6f}")
        Path(args.out_csv).write_text("\n".join(lines) + "\n")
    _emit({"g": g.to_dict(), "e": e.to_dict(), "slices": n_slices,
           "checkpoints": checkpoints, "ingest": report})
    return 0


def _cmd_validate_assumptions(args) -> int:
    magnitude = args.levels - 1 if args.levels else BITS_PER_SAMPLE
    alice, eve, report = _aligned_pair(args.alice, args.eve, magnitude)
    result = stats.validate_assumptions(
        alice, eve, alpha=args.alpha, trials=args.trials, slice_len=args.slice,
        max_lag=args.max_lag, levels=args.levels or None, seed=args.seed)
    if args.lag_csv:
        Path(args.lag_csv).write_text(result.markov_lag_profile.to_csv())
    doc = result.to_dict()
    doc["ingest"] = report
    _emit(doc)
    return 0


def _cmd_plan(args) -> int:
    g, e = _load_fits(args.fits)
    params = protocol.plan_parameters(l=args.l, lambda_=getattr(args, "lambda"),
                                      c=args.c, entropy_fit=g, error_fit=e)
    _emit(params.report)
    return 0


def _cmd_extract_key(args) -> int:
    g, e = _load_fits(args.fits)
    params = protocol.plan_parameters(l=args.l, lambda_=getattr(args, "lambda"),
                                      c=args.c, entropy_fit=g, error_fit=e, n=args.n)
    aligned, _ = _load_aligned({"alice": args.alice, "bob": args.bob})
    result = protocol.run_exchange(aligned["alice"], aligned["bob"], params,
                                   seed=args.seed)
    if args.transcript:
        Path(args.transcript).write_bytes(result.transcript.to_bytes())
    doc = result.to_dict()
    doc["plan"] = params.report
    _emit(doc)
    return 0


def _cmd_report(args) -> int:
    doc = json.loads(Path(args.input).read_text())

    def render(d, indent=0):
        for key in sorted(d):
            value = d[key]
            if isinstance(value, dict):
                print(" " * indent + f"{key}:")
                render(value, indent + 2)
            elif isinstance(value, list) and len(value) > 8:
                print(" " * indent + f"{key}: [{len(value)} values]")
            else:
                print(" " * indent + f"{key}: {value}")

    render(doc)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="physkey",
        description="Physical-layer key extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate alice/bob/eve traces from a channel config")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest", help="align traces on shared sequence numbers")
    p.add_argument("--alice", required=True)
    p.add_argument("--bob", required=True)
    p.add_argument("--eve", action="append")
    p.add_argument("--eve-filter", action="store_true")
    p.add_argument("--magnitude", type=int, default=BITS_PER_SAMPLE)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("estimate-entropy", help="conditional min-entropy of alice given eve")
    p.add_argument("--alice", required=True)
    p.add_argument("--eve", required=True)
    p.add_argument("--levels", type=int, default=32)
    p.add_argument("--slice", type=int, default=hmm.SLICE_LEN)
    p.add_argument("--smoothing", type=float, default=0.0)
    p.set_defaults(func=_cmd_estimate_entropy)

    p = sub.add_parser("fit-growth", help="fit entropy and word-error growth lines")
    p.add_argument("--alice", required=True)
    p.add_argument("--bob", required=True)
    p.add_argument("--eve", required=True)
    p.add_argument("--levels", type=int, default=9)
    p.add_argument("--slice-samples", type=int, default=200)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--smoothing", type=float, default=0.0)
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_fit_growth)

    p = sub.add_parser("validate-assumptions", help="run the channel assumption suite")
    p.add_argument("--alice", required=True)
    p.add_argument("--eve", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--slice", type=int, default=hmm.SLICE_LEN)
    p.add_argument("--max-lag", type=int, default=6)
    p.add_argument("--levels", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lag-csv")
    p.set_defaults(func=_cmd_validate_assumptions)

    p = sub.add_parser("plan", help="choose sample count and code for a key length")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--fits")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("extract-key", help="run one full exchange over trace files")
    p.add_argument("--alice", required=True)
    p.add_argument("--bob", required=True)
    p.add_argument("--l", type=int, default=128)
    p.add_argument("--lambda", type=float, default=80)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--fits")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--transcript")
    p.set_defaults(func=_cmd_extract_key)

    p = sub.add_parser("report", help="render a JSON report as text")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PhyskeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
