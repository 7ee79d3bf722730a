"""Posterior analysis of Poisson hidden Markov models.

Exact posterior distributions of hidden-path pattern statistics (jumps,
occupancy, run lengths) by finite Markov chain imbedding over the
inhomogeneous conditional chain, posterior path sampling, and hybrid
decoding between the Posterior and Viterbi extremes with a simulation-based
rule for choosing the interpolation weight.
"""

from . import io
from .artemis import (
    DegenerateScalingError,
    artemis_study,
    blockwise_accuracy,
    blockwise_study,
    default_alpha_grid,
    optimal_alpha,
    sweep,
)
from .chain import (
    PosteriorChain,
    TwoStateRequiredError,
    build_posterior_chain,
    sample_posterior_paths,
    stay_probabilities,
    swap_states,
)
from .decoding import (
    ImpossibleSequenceError,
    hybrid_decode,
    hybrid_paths,
    posterior_decode,
    viterbi,
)
from .fmci import (
    auto_truncation,
    build_spec,
    expected_exact_run_counts,
    propagate,
)
from .model import (
    BackwardOverflowError,
    FBTables,
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

__version__ = "0.1.0"
