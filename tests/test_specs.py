"""Spec decoding: one reading of measure text everywhere, and no error a
malformed JSON spec raises that the command line would not report as one
`error:` line."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from quasishuffle.errors import QuasiShuffleError
from quasishuffle.kernels import ShuffleMap, sampler_from_json
from quasishuffle.measure import resolve_source, source_from_json

# the errors `cli.main` turns into exit 2
REPORTED = (QuasiShuffleError, ValueError, OSError)


def test_mixture_entries_and_sampler_specs_read_measure_text_alike(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"gaps": [{"lo": "1/4", "hi": "1/2", "atom_side": "left"}]}))
    for text in ("gap(1/2,1,left)", str(path)):
        mixture = source_from_json({"mixture": [{"weight": "1", "measure": text}]})
        sampler = sampler_from_json({"type": "nu_mu", "measure": text})
        assert mixture.components[0][1] == sampler.measure == resolve_source(text)


KEYS = [
    "type", "measure", "gaps", "lo", "hi", "atom_side", "atoms", "pos", "mass", "mixture",
    "weight", "pieces", "slope", "intercept", "grid", "components", "sampler",
]
WORDS = [
    "nu_mu", "nu_mu_star", "deterministic", "grid", "mixture", "left", "right", "gsr",
    "mixed", "interior-atom", "gap(0,1/2,left)", "gap(1/2)", "a-shuffle:3", "a-shuffle:x",
    "0", "1/4", "1/2", "1", "-1", "1/0", "{", "{}",
]
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(WORDS) | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)
# objects that name a sampler type, so the sampler branches are reached
SAMPLER_SPECS = st.builds(
    lambda kind, rest: {**rest, "type": kind},
    st.sampled_from(["nu_mu", "nu_mu_star", "deterministic", "grid", "mixture"]),
    st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=4),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=JSON_VALUES | SAMPLER_SPECS)
def test_decoders_raise_only_errors_the_cli_reports(value):
    for decode in (source_from_json, sampler_from_json, ShuffleMap.from_json):
        try:
            decode(value)
        except REPORTED:
            pass
