"""Command-line front end.

Subcommands: decode, fmci, sample, artemis, blockwise, simulate.  Every
command is deterministic given its arguments including --seed; outputs are
CSV files in the --out directory plus a one-line summary on stdout.  The
bundled datasets can be named directly: --model fetal-lamb --obs fetal-lamb
(or earthquakes).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io
from .artemis import (
    DegenerateScalingError,
    artemis_study,
    blockwise_study,
    default_alpha_grid,
    optimal_alpha,
    sweep,
)
from .chain import (
    TwoStateRequiredError,
    build_posterior_chain,
    sample_posterior_paths,
    stay_probabilities,
    swap_states,
)
from .data import fixture_names, fixture_path
from .decoding import ImpossibleSequenceError, hybrid_decode, posterior_decode, viterbi
from .fmci import aggregate, auto_truncation, build_spec, expected_exact_run_counts, propagate
from .model import (
    HmmModel,
    ImpossibleObservationError,
    ModelValidationError,
    RenormalizationWarning,
    forward_backward,
    log_joint,
    posterior_marginals,
    simulate,
    validate_model,
)

_STATISTICS = ("jumps", "runs", "positions", "longest-run")


def _resolve(path: str, kind: str) -> Path:
    if path in fixture_names():
        return fixture_path(path, kind)
    return Path(path)


def _load_model(args) -> HmmModel:
    model = io.read_model(_resolve(args.model, "model"))
    tolerance = 1e-2 if args.renormalize else 1e-9
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RenormalizationWarning)
        model = validate_model(model, tolerance=tolerance, renormalize=args.renormalize)
    for w in caught:
        print(f"note: {w.message}", file=sys.stderr)
    return model


def _load_counts(args) -> np.ndarray:
    return io.read_counts(_resolve(args.obs, "obs"))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_statistic(spec: str) -> tuple[str, int | None]:
    if spec in _STATISTICS:
        return spec.replace("-", "_"), None
    if spec.startswith("exact-run:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad exact-run length in {spec!r}") from None
        if k < 1:
            raise ValueError("exact-run length must be at least 1")
        return "exact_run", k
    raise ValueError(
        f"unknown statistic {spec!r}; choose from "
        f"{', '.join(_STATISTICS)} or exact-run:K"
    )


def cmd_decode(args) -> int:
    model = _load_model(args)
    x = _load_counts(args)
    out = _outdir(args)
    tables = forward_backward(model, x)
    marginals = posterior_marginals(tables)
    posterior_path = posterior_decode(marginals)
    viterbi_path = viterbi(model, x)
    result = hybrid_decode(model, tables, x, args.alpha)
    hybrid_marg = marginals[np.arange(x.size), result.path - 1]
    io.write_decode_csv(out / "decode.csv", x, posterior_path, viterbi_path,
                        result.path, hybrid_marg)
    lj_post, lj_vit = log_joint(
        model, np.stack([posterior_path, viterbi_path]), x, log_emissions=tables.log_emissions
    )
    print(
        f"loglik={tables.loglik:.12g} posterior_log_joint={lj_post:.12g} "
        f"viterbi_log_joint={lj_vit:.12g} hybrid_log_joint={result.log_joint:.12g} "
        f"hybrid_objective={result.objective:.12g} alpha={args.alpha:g}"
    )
    print(f"wrote {out / 'decode.csv'}")
    return 0


def cmd_fmci(args) -> int:
    model = _load_model(args)
    if model.num_states != 2:
        raise TwoStateRequiredError(
            f"FMCI statistics are derived for 2 hidden states, model has "
            f"{model.num_states}; larger models are not collapsed because a "
            "function of a Markov chain need not be Markov"
        )
    x = _load_counts(args)
    out = _outdir(args)
    tables = forward_backward(model, x)
    chain = build_posterior_chain(model, tables)
    if args.target_state == 1:
        chain = swap_states(chain)
    io.write_stay_csv(out / "stay_probs.csv", stay_probabilities(chain))

    requested = args.statistic or list(_STATISTICS)
    parsed = [_parse_statistic(s) for s in requested]

    for statistic, run_length in parsed:
        if args.ell == "auto":
            ell = auto_truncation(chain, statistic, run_length)
            print(f"auto truncation for {statistic}: {ell}")
        else:
            ell = int(args.ell)
        spec = build_spec(statistic, ell, run_length)
        dist = aggregate(spec, propagate(spec, chain))
        suffix = statistic if run_length is None else f"{statistic}_{run_length}"
        io.write_distribution_csv(out / f"fmci_{suffix}.csv", dist)
        print(
            f"{suffix}: P(>= {dist.truncation + 1}) = {dist.overflow:.6g}; "
            f"wrote {out / f'fmci_{suffix}.csv'}"
        )
    if args.expected_runs:
        ell = None if args.ell == "auto" else int(args.ell)
        counts = expected_exact_run_counts(chain, args.expected_runs, ell)
        io.write_run_counts_csv(out / "expected_run_counts.csv", counts)
        print(f"wrote {out / 'expected_run_counts.csv'}")
    return 0


def cmd_sample(args) -> int:
    model = _load_model(args)
    x = _load_counts(args)
    out = _outdir(args)
    tables = forward_backward(model, x)
    chain = build_posterior_chain(model, tables)
    paths = sample_posterior_paths(chain, args.samples, args.seed)
    io.write_samples_csv(out / "samples.csv", paths)
    marginals = posterior_marginals(tables)
    frequencies = np.stack(
        [(paths == j + 1).mean(axis=0) for j in range(model.num_states)], axis=1
    )
    io.write_frequency_csv(out / "frequencies.csv", frequencies, marginals)
    print(f"wrote {out / 'samples.csv'} and {out / 'frequencies.csv'}")
    return 0


def cmd_artemis(args) -> int:
    model = _load_model(args)
    out = _outdir(args)
    alphas = default_alpha_grid(args.alpha_grid)
    if args.obs:
        if not args.states:
            raise ValueError("--obs also needs --states (the true hidden sequence)")
        x = _load_counts(args)
        y = io.read_counts(_resolve(args.states, "obs"))
        curve = sweep(model, x, y, alphas)
        io.write_curve_csv(out / "artemis_curve.csv", curve)
        print(f"optimal_alpha={optimal_alpha(curve):.12g}")
        return 0
    if args.n < 10_000:
        print(
            f"warning: n={args.n} is small; the Artemis curve will be coarse and "
            "the chosen alpha unstable -- curves stabilize for increasing "
            "sequence length",
            file=sys.stderr,
        )

    def save_curve(r: int, curve) -> None:
        io.write_curve_csv(out / f"artemis_curve_{r + 1}.csv", curve)

    report = artemis_study(
        model, args.n, args.replicates, alphas, args.seed, on_replicate=save_curve
    )
    io.write_study_csv(out / "artemis_study.csv", report)
    if all(alpha is None for alpha in report.optimal_alphas):
        raise DegenerateScalingError(
            "every replicate's sweep had constant axes, so no optimal alpha is "
            f"defined; per-replicate labels are in {out / 'artemis_study.csv'}"
        )
    print(f"average_optimal_alpha={report.average:.12g} std={report.std:.12g}")
    print(f"wrote {out / 'artemis_study.csv'}")
    return 0


def cmd_blockwise(args) -> int:
    model = _load_model(args)
    out = _outdir(args)
    block_sizes = [int(b) for b in args.block_sizes.split(",")]
    rows = blockwise_study(
        model, args.n, args.replicates, [args.alpha], block_sizes, args.seed
    )
    io.write_blockwise_csv(out / "blockwise.csv", rows)
    print(f"wrote {out / 'blockwise.csv'}")
    return 0


def cmd_simulate(args) -> int:
    model = _load_model(args)
    out = _outdir(args)
    states, counts = simulate(model, args.n, args.seed)
    io.write_counts(out / "observations.csv", counts)
    io.write_states(out / "states.csv", states)
    print(f"wrote {out / 'observations.csv'} and {out / 'states.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmposterior",
        description="Posterior analysis of Poisson hidden Markov models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, obs=True):
        p.add_argument("--model", required=True,
                       help="model file, or a bundled name (fetal-lamb, earthquakes)")
        if obs:
            p.add_argument("--obs", help="observation CSV, or a bundled name")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--renormalize", action="store_true",
                       help="rescale probability rows that sum to 1 only within 1e-2")

    p = sub.add_parser("decode", help="Posterior, Viterbi, and hybrid decoding")
    common(p)
    p.add_argument("--alpha", type=float, default=0.5, help="hybrid weight in [0, 1]")
    p.set_defaults(func=cmd_decode, obs_required=True)

    p = sub.add_parser("fmci", help="exact posterior pattern distributions")
    common(p)
    p.add_argument("--statistic", action="append",
                   help="jumps, runs, positions, longest-run, or exact-run:K; "
                        "repeatable (default: all but exact-run)")
    p.add_argument("--ell", default="auto",
                   help="truncation level, or 'auto': exact for the counting "
                        "statistics, overflow at most 1e-12 for longest-run")
    p.add_argument("--expected-runs", type=int, default=0, metavar="K_MAX",
                   help="also emit expected exact-run counts for k = 1..K_MAX")
    p.add_argument("--target-state", type=int, choices=(1, 2), default=2,
                   help="which hidden state the statistics target")
    p.set_defaults(func=cmd_fmci, obs_required=True)

    p = sub.add_parser("sample", help="sample hidden paths from the posterior chain")
    common(p)
    p.add_argument("--samples", type=int, default=1000, help="number of paths")
    p.set_defaults(func=cmd_sample, obs_required=True)

    p = sub.add_parser("artemis", help="alpha sweeps and replicate studies")
    common(p)
    p.add_argument("--states", help="true hidden states paired with --obs")
    p.add_argument("--alpha-grid", type=int, default=256, metavar="N",
                   help="use the grid k/N, k = 0..N")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--n", type=int, default=100_000, help="simulated sequence length")
    p.set_defaults(func=cmd_artemis, obs_required=False)

    p = sub.add_parser("blockwise", help="block-wise decoding accuracy study")
    common(p, obs=False)
    p.add_argument("--alpha", type=float, required=True, help="hybrid weight")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--n", type=int, default=100_000, help="simulated sequence length")
    p.add_argument("--block-sizes", default="1,2,3,4,5,10,20,50,100,200,500")
    p.set_defaults(func=cmd_blockwise, obs_required=False)

    p = sub.add_parser("simulate", help="simulate a hidden path and observations")
    common(p, obs=False)
    p.add_argument("--n", type=int, required=True, help="sequence length")
    p.set_defaults(func=cmd_simulate, obs_required=False)

    return parser


_ERROR_CATEGORIES = [
    (io.ParseError, "parse-error", 2),
    (ModelValidationError, "model-validation", 3),
    (TwoStateRequiredError, "two-state-required", 4),
    (DegenerateScalingError, "degenerate-scaling", 5),
    (ImpossibleObservationError, "impossible-observation", 6),
    (ImpossibleSequenceError, "impossible-sequence", 6),
    (ValueError, "argument-error", 7),
    (OSError, "io-error", 8),
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "obs_required", False) and not args.obs:
        parser.error(f"{args.command} requires --obs")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to categorized exit status
        for exc_type, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
