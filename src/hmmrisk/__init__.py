"""Risk-based hidden-path decoders for hidden Markov models.

The package decodes hidden state sequences under a family of combined risk
objectives spanning Viterbi, pointwise posterior (PMAP) decoding and its
admissibility-constrained variants, k-block bridging decoders, overlapping
block decoders, power-transform hybrids, and label-level decoding, together
with exact risk evaluation, brute-force oracles, and Monte Carlo
risk-convergence experiments.
"""

from .decoders import (
    DecodedPath,
    alpha_interpolation_decode,
    brute_force_decode,
    constrained_pmap_decode,
    decode_many,
    hybrid_decode,
    kblock_pvd_decode,
    pmap_decode,
    pvd_decode,
    rabiner_block_decode,
    resolve_decoder,
    viterbi,
    viterbi_decode,
)
from .errors import (
    DirectLikelihoodNotGenerativeError,
    HmmError,
    InstanceTooLargeError,
    KOutOfRangeError,
    NoFinitePathError,
    ParseError,
    ZeroEvidenceError,
)
from .inference import (
    PosteriorSummary,
    PriorChain,
    block_posterior,
    forward_backward,
    forward_backward_many,
)
from .labelling import LabelMap, averaged_label_posterior, identity_label_map, label_decode
from .model import (
    Categorical,
    DiagonalGaussian,
    DirectLikelihood,
    HmmModel,
    prior_marginals,
    sample_trajectories,
    sample_trajectory,
    validate_model,
)
from .risk import (
    RiskReport,
    RiskWeights,
    combined_risk,
    evaluate_risks,
    joint_log_likelihood,
    kblock_logrisk,
    posterior_log_probability,
    power_risk,
    rabiner_block_gain,
)
from .sim import RiskTrajectory, estimate_risk_trajectories, sandwich_constant_sweep
from .transform import (
    TransformedTables,
    rescaling_distortion_probe,
    symbol_by_symbol_decode,
    transformed_forward_backward,
)
from .worked_example import four_state_model, four_state_observations

__version__ = "0.1.0"
