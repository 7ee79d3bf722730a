"""Command-line front end.

Subcommands: decode, fmci, sample, artemis, blockwise, simulate.  Every
command is deterministic given its arguments.  sample, artemis, blockwise
and simulate draw their random numbers from --seed; decode and fmci accept
--seed but draw none.  Outputs are CSV files in the --out directory plus a
one-line summary on stdout.  The bundled datasets can be named directly:
--model fetal-lamb --obs fetal-lamb (or earthquakes).
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
from .decoding import (
    ImpossibleSequenceError,
    _check_alphas,
    hybrid_decode,
    posterior_decode,
    viterbi,
)
from .fmci import (
    _MAX_LONGEST_RUN_LEVEL,
    _level,
    build_spec,
    expected_exact_run_counts,
    propagate,
)
from .model import (
    BackwardOverflowError,
    HmmModel,
    ImpossibleObservationError,
    ModelValidationError,
    NumericalError,
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


def _parse_statistic(spec: str, n: int) -> tuple[str, int | None]:
    if spec in _STATISTICS:
        return spec.replace("-", "_"), None
    if spec.startswith("exact-run:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad exact-run length in {spec!r}") from None
        if k < 1:
            raise ValueError("exact-run length must be at least 1")
        if k > n:
            raise ValueError(f"exact-run length {k} exceeds the series length n = {n}")
        return "exact_run", k
    raise ValueError(
        f"unknown statistic {spec!r}; choose from "
        f"{', '.join(_STATISTICS)} or exact-run:K"
    )


def _parse_ell(text: str) -> int | None:
    """None for 'auto', else the truncation level, at least 1."""
    if text == "auto":
        return None
    try:
        ell = int(text)
    except ValueError:
        ell = 0
    if ell < 1:
        raise ValueError(f"--ell must be 'auto' or an integer of at least 1, got {text!r}")
    return ell


def cmd_decode(args) -> int:
    _check_alphas(args.alpha)  # before any input is read and --out is made
    model = _load_model(args)
    x = _load_counts(args)
    tables = forward_backward(model, x)
    marginals = posterior_marginals(tables)
    posterior_path = posterior_decode(marginals)
    viterbi_path = viterbi(model, x)
    result = hybrid_decode(model, tables, x, args.alpha)
    hybrid_marg = marginals[np.arange(x.size), result.path - 1]
    lj_post, lj_vit = log_joint(
        model, np.stack([posterior_path, viterbi_path]), x, log_emissions=tables.log_emissions
    )
    # no path is more likely than the data: P(y, x) <= P(x)
    bound = tables.loglik + 1e-9 * max(1.0, abs(tables.loglik))
    for name, lj in (("posterior", lj_post), ("viterbi", lj_vit), ("hybrid", result.log_joint)):
        if lj > bound:
            raise NumericalError(
                f"the {name} path's log joint probability {lj:.12g} exceeds the "
                f"log-likelihood {tables.loglik:.12g}: the scaled tables lost probability "
                "mass to underflow, so the posterior cannot be computed in double precision"
            )
    out = _outdir(args)
    io.write_decode_csv(out / "decode.csv", x, posterior_path, viterbi_path,
                        result.path, hybrid_marg)
    print(
        f"loglik={tables.loglik:.12g} posterior_log_joint={lj_post:.12g} "
        f"viterbi_log_joint={lj_vit:.12g} hybrid_log_joint={result.log_joint:.12g} "
        f"hybrid_objective={result.objective:.12g} alpha={args.alpha:g}"
    )
    print(f"wrote {out / 'decode.csv'}")
    return 0


def _check_longest_run_level(ell: int) -> None:
    if ell > _MAX_LONGEST_RUN_LEVEL:
        raise ValueError(
            f"longest-run level {ell} is above {_MAX_LONGEST_RUN_LEVEL}, the largest accepted: "
            f"its run-length arrays would take about {8 * ell**2 / 1e6:.0f} MB "
            "(8 * level^2 bytes); pass a smaller --ell to get a truncated distribution"
        )


def cmd_fmci(args) -> int:
    requested = args.statistic or _STATISTICS
    fixed_ell = _parse_ell(args.ell)
    if fixed_ell is not None and "longest-run" in requested:
        _check_longest_run_level(fixed_ell)  # before any input is read and --out is made
    model = _load_model(args)
    if model.num_states != 2:
        raise TwoStateRequiredError(
            f"FMCI statistics are derived for 2 hidden states, model has "
            f"{model.num_states}; larger models are not collapsed because a "
            "function of a Markov chain need not be Markov"
        )
    x = _load_counts(args)
    parsed = [_parse_statistic(s, x.size) for s in requested]
    if not 0 <= args.expected_runs <= x.size:
        raise ValueError(
            f"--expected-runs must be between 0 and the series length n = {x.size}, "
            f"got {args.expected_runs}"
        )
    tables = forward_backward(model, x)
    chain = build_posterior_chain(model, tables)
    if args.target_state == 1:
        chain = swap_states(chain)
    levels = [_level(chain, statistic, k, fixed_ell) for statistic, k in parsed]
    for (statistic, _), ell in zip(parsed, levels):
        if statistic == "longest_run":
            _check_longest_run_level(ell)
    out = _outdir(args)
    io.write_stay_csv(out / "stay_probs.csv", stay_probabilities(chain))

    exact_runs = {}  # run length -> distribution, reused by --expected-runs
    for (statistic, run_length), ell in zip(parsed, levels):
        if fixed_ell is None:
            print(f"auto truncation for {statistic}: {ell}")
        dist = propagate(build_spec(statistic, ell, run_length), chain)
        if statistic == "exact_run":
            exact_runs[run_length] = dist
        suffix = statistic if run_length is None else f"{statistic}_{run_length}"
        io.write_distribution_csv(out / f"fmci_{suffix}.csv", dist)
        print(
            f"{suffix}: P(>= {dist.truncation + 1}) = {dist.overflow:.6g}; "
            f"wrote {out / f'fmci_{suffix}.csv'}"
        )
    if args.expected_runs:
        counts = expected_exact_run_counts(chain, args.expected_runs, fixed_ell, exact_runs)
        io.write_run_counts_csv(out / "expected_run_counts.csv", counts)
        print(f"wrote {out / 'expected_run_counts.csv'}")
    return 0


def cmd_sample(args) -> int:
    if args.samples < 1:  # before any input is read and --out is made
        raise ValueError("number of paths must be at least 1")
    model = _load_model(args)
    x = _load_counts(args)
    tables = forward_backward(model, x)
    chain = build_posterior_chain(model, tables)
    paths = sample_posterior_paths(chain, args.samples, args.seed)
    out = _outdir(args)
    io.write_samples_csv(out / "samples.csv", paths)
    marginals = posterior_marginals(tables)
    frequencies = np.stack(
        [(paths == j + 1).mean(axis=0) for j in range(model.num_states)], axis=1
    )
    io.write_frequency_csv(out / "frequencies.csv", frequencies, marginals)
    print(f"wrote {out / 'samples.csv'} and {out / 'frequencies.csv'}")
    return 0


def _check_study_size(args) -> None:
    # before the small-n warning and before --out is made
    if args.n < 1:
        raise ValueError("sequence length must be at least 1")
    if args.replicates < 1:
        raise ValueError("need at least one replicate")


def cmd_artemis(args) -> int:
    model = _load_model(args)
    if args.obs and not args.states:
        raise ValueError("--obs also needs --states (the true hidden sequence)")
    if not args.obs:
        _check_study_size(args)
    alphas = default_alpha_grid(args.alpha_grid)
    if args.obs:
        x = _load_counts(args)
        y = io.read_counts(_resolve(args.states, "obs"))
        curve = sweep(model, x, y, alphas)
        io.write_curve_csv(_outdir(args) / "artemis_curve.csv", curve)
        print(f"optimal_alpha={optimal_alpha(curve):.12g}")
        return 0
    if args.n < 10_000:
        print(
            f"warning: n={args.n} is small; the Artemis curve will be coarse and "
            "the chosen alpha unstable -- curves stabilize for increasing "
            "sequence length",
            file=sys.stderr,
        )
    out = _outdir(args)

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
    _check_alphas(args.alpha)  # before any input is read and --out is made
    model = _load_model(args)
    _check_study_size(args)
    try:
        block_sizes = [int(b) for b in args.block_sizes.split(",")]
    except ValueError:
        raise ValueError(
            f"--block-sizes must be comma-separated integers, got {args.block_sizes!r}"
        ) from None
    rows = blockwise_study(
        model, args.n, args.replicates, [args.alpha], block_sizes, args.seed
    )
    out = _outdir(args)
    io.write_blockwise_csv(out / "blockwise.csv", rows)
    print(f"wrote {out / 'blockwise.csv'}")
    return 0


def cmd_simulate(args) -> int:
    if args.n < 1:  # before any input is read and --out is made
        raise ValueError("sequence length must be at least 1")
    model = _load_model(args)
    out = _outdir(args)
    states, counts = simulate(model, args.n, args.seed)
    io.write_column(out / "observations.csv", "count", counts)
    io.write_column(out / "states.csv", "state", states)
    print(f"wrote {out / 'observations.csv'} and {out / 'states.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmposterior",
        description="Posterior analysis of Poisson hidden Markov models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, obs=True, draws=True):
        p.add_argument("--model", required=True,
                       help="model file, or a bundled name (fetal-lamb, earthquakes)")
        if obs:
            p.add_argument("--obs", help="observation CSV, or a bundled name")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit master seed" if draws
                       else "unused: this subcommand draws no random numbers")
        p.add_argument("--renormalize", action="store_true",
                       help="rescale probability rows that sum to 1 only within 1e-2")

    p = sub.add_parser("decode", help="Posterior, Viterbi, and hybrid decoding")
    common(p, draws=False)
    p.add_argument("--alpha", type=float, default=0.5, help="hybrid weight in [0, 1]")
    p.set_defaults(func=cmd_decode, obs_required=True)

    p = sub.add_parser("fmci", help="exact posterior pattern distributions")
    common(p, draws=False)
    p.add_argument("--statistic", action="append",
                   help="jumps, runs, positions, longest-run, or exact-run:K; "
                        "repeatable (default: all but exact-run)")
    p.add_argument("--ell", default="auto",
                   help="truncation level, or 'auto': exact for the counting "
                        "statistics, overflow at most 1e-12 for longest-run; a "
                        "counting statistic's level is lowered to its auto level")
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
    (BackwardOverflowError, "numerical-overflow", 10),
    (NumericalError, "numerical-error", 10),
    (ValueError, "argument-error", 7),
    (OSError, "io-error", 8),
    (MemoryError, "out-of-memory", 9),
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "obs_required", False) and not args.obs:
        parser.error(f"{args.command} requires --obs")
    try:
        if not 0 <= args.seed < 2**64:  # every subcommand takes one 64-bit seed
            raise ValueError(f"--seed must be an integer in 0..2^64-1, got {args.seed}")
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to categorized exit status
        for exc_type, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
