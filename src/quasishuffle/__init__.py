"""Random orderings of the integers and generalized riffle shuffles.

Quasi-uniform measures on [0,1] induce exchangeable-increment random
orderings of integer labels and, through couplings of two uniforms,
shuffling kernels on small symmetric groups.  Everything structural is
exact rational arithmetic; samplers are checked against brute-force
oracles.

The package namespace is lazy (PEP 562): a public name, or a submodule
name, imports its module when it is first read, so a process loads only
the modules it uses.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "errors": (
        "CapExceeded",
        "DegenerateGap",
        "DimensionMismatch",
        "EmptyCounts",
        "ExactUnavailable",
        "IncomparableSamples",
        "InvalidGridMatrix",
        "InvalidMixture",
        "InvalidShuffleMap",
        "NotPurelyAtomic",
        "OutOfRange",
        "OverlappingGaps",
        "QuasiShuffleError",
        "WindowTooSmall",
    ),
    "measure": (
        "CandidateMeasure",
        "Cell",
        "CellDecomposition",
        "ConjugateSample",
        "GapInterval",
        "MeasureMixture",
        "QuasiUniformMeasure",
        "a_shuffle",
        "as_fraction",
        "cell_decomposition",
        "compose",
        "gsr",
        "interior_atom_fixture",
        "is_quasi_uniform",
        "lebesgue",
        "mixed_fixture",
        "parse_measure",
        "power",
        "resolve_source",
        "sample_conjugate_batch",
        "sample_conjugate_pair",
        "source_from_json",
        "validate",
    ),
    "ordering": (
        "EmpiricalPosition",
        "compare",
        "empirical_positions",
        "exchangeability_test",
        "ordering_counts",
        "sample_ordering_batch",
    ),
    "kernels": (
        "AffinePiece",
        "ConjugateCoupling",
        "CouplingSampler",
        "DeterministicCoupling",
        "GridCopulaCoupling",
        "InverseConjugateCoupling",
        "MixtureCoupling",
        "ShuffleMap",
        "empirical_mixing_curve",
        "empirical_step_counts",
        "kernel_matrix",
        "resolve_sampler",
        "sampler_from_json",
        "shuffle_map_from_measure",
        "step_batch",
        "walk",
    ),
    "oracle": (
        "PermutationDistribution",
        "combine_distributions",
        "convolve",
        "exact_coupling_step_distribution",
        "exact_map_step_distribution",
        "exact_ordering_distribution",
        "exact_step_distribution",
        "invert_distribution",
        "mixing_curve",
        "ranking_probability",
        "restrict_distribution",
        "transition_matrix",
        "tv_distance",
    ),
    "stats": (
        "TestReport",
        "chi_square_goodness",
        "chi_square_two_sample",
        "empirical_tv",
        "ks_measure_marginal",
        "ks_uniform",
    ),
    "verify": ("CheckResult", "VerifyReport", "run_property_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "permutations")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the submodule that `name` is, or that defines it, on first read."""
    if name not in _MODULE_OF and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_MODULE_OF.get(name, name)}")
    value = getattr(module, name) if name in _MODULE_OF else module
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
