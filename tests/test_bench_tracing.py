"""The traced benchmark run rebinds library functions by name; they must exist."""

import importlib.util
from pathlib import Path

import numpy as np

import quasishuffle
import quasishuffle.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    for module, function, _ in tracing.TRACED:
        # Recorder.install reads getattr(package, module).__dict__[function]
        assert function in getattr(quasishuffle, module).__dict__, f"{module}.{function}"
    for function in tracing.CLI_COMMANDS:
        assert function in quasishuffle.cli.__dict__, f"cli.{function}"


def test_traced_caches_exist():
    tracing = load_tracing()
    for name in tracing.LRU_CACHES:
        assert hasattr(getattr(quasishuffle.measure, name, None), "cache_info"), name
    recorder = tracing.Recorder(quasishuffle)
    recorder.install()
    try:
        assert recorder.cache_entries() >= 0
    finally:
        recorder.uninstall()
    assert not hasattr(quasishuffle.ordering.sample_ordering_batch, "__wrapped__")


def test_step_batch_trace_keeps_the_sampling_layer():
    """One traced step_batch call counts its draws and nests the batch draw.
    The measure has a diffuse cell and the rows 9 labels, so its steps take
    the per-card key route; a purely atomic one would draw one uniform per
    row instead, and at up to 8 labels this one two."""
    tracing = load_tracing()
    recorder = tracing.Recorder(quasishuffle)
    recorder.install()
    try:
        sampler = quasishuffle.kernels.ConjugateCoupling(quasishuffle.measure.mixed_fixture())
        quasishuffle.kernels.step_batch(9, sampler, 100, np.random.default_rng(1))
    finally:
        recorder.uninstall()
    assert recorder.counts["measure.draws"] == 900
    names = [name for name, _, _, _ in recorder.spans]
    assert names == ["kernels.step_batch", "measure.sample_conjugate_batch"]
    assert recorder.spans[1][3] == 0  # its parent is the step_batch span


def test_word_table_steps_record_no_sampling_layer():
    """A purely atomic measure's steps draw one uniform per row in
    `ordering._deal`, which the trace neither counts nor times: the
    one span is `kernels.step_batch`, and no draw is counted.  This pins
    the gap until the tracer counts word draws."""
    tracing = load_tracing()
    recorder = tracing.Recorder(quasishuffle)
    recorder.install()
    try:
        sampler = quasishuffle.kernels.ConjugateCoupling(quasishuffle.measure.gsr())
        quasishuffle.kernels.step_batch(8, sampler, 100, np.random.default_rng(1))
    finally:
        recorder.uninstall()
    assert recorder.counts.get("measure.draws", 0) == 0
    assert [name for name, _, _, _ in recorder.spans] == ["kernels.step_batch"]
