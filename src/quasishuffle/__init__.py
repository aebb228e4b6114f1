"""Random orderings of the integers and generalized riffle shuffles.

Quasi-uniform measures on [0,1] induce exchangeable-increment random
orderings of integer labels and, through couplings of two uniforms,
shuffling kernels on small symmetric groups.  Everything structural is
exact rational arithmetic; samplers are checked against brute-force
oracles.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    DegenerateGap,
    DimensionMismatch,
    EmptyCounts,
    ExactUnavailable,
    IncomparableSamples,
    InvalidGridMatrix,
    InvalidMixture,
    InvalidShuffleMap,
    NotPurelyAtomic,
    OutOfRange,
    OverlappingGaps,
    QuasiShuffleError,
    WindowTooSmall,
)
from .measure import (
    CandidateMeasure,
    Cell,
    CellDecomposition,
    ConjugateSample,
    GapInterval,
    MeasureMixture,
    QuasiUniformMeasure,
    a_shuffle,
    as_fraction,
    cell_decomposition,
    compose,
    gsr,
    interior_atom_fixture,
    is_quasi_uniform,
    lebesgue,
    mixed_fixture,
    parse_measure,
    power,
    resolve_source,
    sample_conjugate_batch,
    sample_conjugate_pair,
    source_from_json,
    validate,
)
from .ordering import (
    EmpiricalPosition,
    compare,
    empirical_positions,
    exchangeability_test,
    ordering_counts,
    sample_ordering_batch,
)
from .kernels import (
    AffinePiece,
    ConjugateCoupling,
    CouplingSampler,
    DeterministicCoupling,
    GridCopulaCoupling,
    InverseConjugateCoupling,
    MixtureCoupling,
    ShuffleMap,
    empirical_mixing_curve,
    empirical_step_counts,
    kernel_matrix,
    resolve_sampler,
    sampler_from_json,
    shuffle_map_from_measure,
    step_batch,
    walk,
)
from .oracle import (
    PermutationDistribution,
    combine_distributions,
    convolve,
    exact_coupling_step_distribution,
    exact_map_step_distribution,
    exact_ordering_distribution,
    exact_step_distribution,
    invert_distribution,
    mixing_curve,
    ranking_probability,
    restrict_distribution,
    transition_matrix,
    tv_distance,
)
from .stats import (
    TestReport,
    chi_square_goodness,
    chi_square_two_sample,
    empirical_tv,
    ks_measure_marginal,
    ks_uniform,
)
from .verify import CheckResult, VerifyReport, run_property_suite
