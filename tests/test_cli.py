"""End-to-end command-line checks: formats, determinism, exit codes."""

import json
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from quasishuffle.cli import _rows_and_histogram, main
from quasishuffle.permutations import perm_to_str

from conftest import make_rng


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_order_csv(capsys):
    code, out, err = run(
        capsys,
        "sample-order",
        "--measure",
        "gsr",
        "--n",
        "2",
        "--samples",
        "200",
        "--seed",
        "5",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "permutation"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert len(body) == 200
    assert set(body) <= {"12", "21"}
    hist = [l for l in lines if l.startswith("# ") and "," in l]
    counts = dict(h[2:].split(",") for h in hist)
    assert sum(int(v) for v in counts.values()) == 200


def test_sample_order_json_and_labels(capsys):
    code, out, _ = run(
        capsys,
        "sample-order",
        "--measure",
        "gap(0,1,left)",
        "--labels",
        "2,9,40",
        "--samples",
        "3",
        "--seed",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == [2, 9, 40]
    assert doc["histogram"] == {"321": 3}
    assert doc["rankings"] == ["321", "321", "321"]


def test_sample_order_deterministic_across_runs(capsys):
    args = (
        "sample-order",
        "--measure",
        "mixed",
        "--n",
        "4",
        "--samples",
        "500",
        "--seed",
        "77",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_sample_order_to_file(tmp_path, capsys):
    target = tmp_path / "orders.csv"
    code, out, _ = run(
        capsys,
        "sample-order",
        "--measure",
        "gsr",
        "--n",
        "3",
        "--samples",
        "10",
        "--seed",
        "3",
        "--out",
        str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("permutation\n")


def test_step_json(capsys):
    code, out, _ = run(
        capsys,
        "step",
        "--measure",
        "gsr",
        "--type",
        "two",
        "--n",
        "3",
        "--samples",
        "400",
        "--seed",
        "11",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["seed"] == 11
    assert sum(doc["histogram"].values()) == 400
    assert "321" not in doc["histogram"]


def test_step_with_sampler_spec(capsys):
    code, out, _ = run(
        capsys,
        "step",
        "--sampler",
        "deterministic:gsr",
        "--n",
        "2",
        "--samples",
        "100",
        "--seed",
        "2",
    )
    assert code == 0
    assert out.startswith("permutation\n")


def test_walk_csv(capsys):
    code, out, _ = run(
        capsys,
        "walk",
        "--sampler",
        "nu_mu:a-shuffle:3",
        "--n",
        "4",
        "--steps",
        "5",
        "--seed",
        "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,permutation"
    assert len(lines) == 7
    assert lines[1] == "0,1234"


def test_walk_start_and_json(capsys):
    code, out, _ = run(
        capsys,
        "walk",
        "--measure",
        "gap(0,1,left)",
        "--n",
        "3",
        "--steps",
        "2",
        "--start",
        "231",
        "--seed",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["states"][0] == "231"
    assert doc["states"][1] == "213"
    assert doc["states"][2] == "231"


def test_verify_passes_builtin(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--measure",
        "gsr",
        "--n",
        "3",
        "--samples",
        "20000",
        "--seed",
        "6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_rejects_interior_atom(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--measure",
        "interior-atom",
        "--n",
        "3",
        "--samples",
        "5000",
        "--seed",
        "6",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and failed[0]["name"] == "quasi-uniform"


def test_mixing_exact_csv(capsys):
    code, out, _ = run(
        capsys,
        "mixing",
        "--measure",
        "gsr",
        "--type",
        "two",
        "--n",
        "4",
        "--steps",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,tv_exact"
    assert lines[1].startswith("0,0.958333333333")
    assert lines[2].startswith("1,0.5")
    assert lines[3].startswith("2,0.28125")


def test_mixing_mc_needs_seed(capsys):
    code, _, err = run(
        capsys,
        "mixing",
        "--measure",
        "gsr",
        "--n",
        "3",
        "--steps",
        "2",
        "--mode",
        "mc",
    )
    assert code == 2
    assert "seed" in err


def test_mixing_both_modes(capsys):
    code, out, _ = run(
        capsys,
        "mixing",
        "--measure",
        "gsr",
        "--n",
        "3",
        "--steps",
        "2",
        "--mode",
        "both",
        "--samples",
        "2000",
        "--seed",
        "14",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,tv_exact,tv_empirical"
    assert len(lines) == 4


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_mixing_rejects_negative_steps(capsys, mode):
    code, out, err = run(
        capsys, "mixing", "--measure", "gsr", "--n", "3", "--steps", "-1",
        "--mode", mode, "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: steps = -1 is negative\n"


def test_mixing_mc_rejects_zero_samples(capsys):
    code, out, err = run(
        capsys, "mixing", "--measure", "gsr", "--n", "3", "--steps", "2",
        "--mode", "mc", "--seed", "1", "--samples", "0",
    )
    assert code == 2 and out == ""
    assert err == "error: need at least one trial, got 0\n"


def test_mixing_mc_beyond_float_factorial(capsys):
    # 171! does not fit a float, and TV = 1 - 1/171! prints as 1
    code, out, err = run(
        capsys, "mixing", "--measure", "gsr", "--n", "171", "--steps", "1",
        "--mode", "mc", "--samples", "2", "--seed", "1",
    )
    assert code == 0 and err == ""
    assert out == "h,tv_empirical\n0,1\n1,1\n"


def test_mixing_exact_eight_cards_is_bayer_diaconis(capsys):
    """Ten riffles of eight cards: TV_h = 1/2 sum over d of A(8, d) |C(2^h + 7 - d, 8)
    / 2^(8h) - 1/8!|, A(8, d) the Eulerian numbers."""
    eulerian = [1, 247, 4293, 15619, 15619, 4293, 247, 1]
    want = ["h,tv_exact"]
    for h in range(11):
        a = 2**h
        tv = sum(
            e * abs(Fraction(comb(a + 7 - d, 8), a**8) - Fraction(1, factorial(8)))
            for d, e in enumerate(eulerian)
        ) / 2
        want.append(f"{h},{float(tv):.12g}")
    code, out, err = run(capsys, "mixing", "--measure", "gsr", "--n", "8", "--steps", "10")
    assert code == 0 and err == ""
    assert out.splitlines() == want


def test_mixing_mixture_above_cap_is_one_line_error(capsys):
    mixture = json.dumps(
        {"mixture": [{"weight": "1/2", "measure": "gsr"}, {"weight": "1/2", "measure": "mixed"}]}
    )
    code, out, err = run(capsys, "mixing", "--measure", mixture, "--n", "7", "--steps", "2")
    assert code == 2 and out == ""
    assert err == "error: n = 7 above exact cap 6\n"
    # a plain measure at the same size has no cap on n
    code, out, err = run(capsys, "mixing", "--measure", "mixed", "--n", "7", "--steps", "2")
    assert code == 0 and err == "" and len(out.splitlines()) == 4


def test_mixing_rejects_a_mc_mixture_before_the_exact_curve(capsys):
    # the exact curve alone would fail on the mixture's cap on n
    mixture = json.dumps(
        {"mixture": [{"weight": "1/2", "measure": "gsr"}, {"weight": "1/2", "measure": "mixed"}]}
    )
    code, out, err = run(
        capsys, "mixing", "--measure", mixture, "--n", "7", "--steps", "6",
        "--mode", "both", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: mc mixing runs on a plain measure\n"


def test_mixing_asks_for_a_seed_before_the_exact_curve(capsys):
    # the exact curve alone would fail on its work cap
    code, out, err = run(
        capsys, "mixing", "--measure", "gsr", "--n", "52", "--steps", "10", "--mode", "both"
    )
    assert code == 2 and out == ""
    assert err == "error: mc mode needs --seed\n"


def test_shuffle_map_json_and_grid(capsys):
    code, out, _ = run(
        capsys,
        "shuffle-map",
        "--measure",
        "gsr",
        "--grid",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [p["slope"] for p in doc["pieces"]] == ["2", "2"]
    assert doc["table"] == [
        {"x": "0", "value": "0"},
        {"x": "1/4", "value": "1/2"},
        {"x": "1/2", "value": "0"},
        {"x": "3/4", "value": "1/2"},
        {"x": "1", "value": "1"},
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_shuffle_map_grid_zero_or_negative(capsys, fmt):
    plain = run(capsys, "shuffle-map", "--measure", "gsr", "--format", fmt)
    assert plain[0] == 0
    # --grid 0 tabulates nothing, as if no grid were given
    assert run(capsys, "shuffle-map", "--measure", "gsr", "--grid", "0", "--format", fmt) == plain
    code, out, err = run(capsys, "shuffle-map", "--measure", "gsr", "--grid", "-2", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: grid = -2 is negative\n"


def test_shuffle_map_rejects_diffuse(capsys):
    code, _, err = run(capsys, "shuffle-map", "--measure", "lebesgue")
    assert code == 2
    assert "diffuse" in err.lower()


def test_oracle_order(capsys):
    code, out, _ = run(
        capsys, "oracle", "--measure", "gsr", "--n", "2", "--kind", "order"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["probs"] == {"12": "3/4", "21": "1/4"}


def test_oracle_kind_two(capsys):
    code, out, _ = run(
        capsys, "oracle", "--measure", "gap(0,1,left)", "--n", "3", "--kind", "two"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["probs"] == {"321": "1"}


def test_oracle_cap_exceeded(capsys):
    code, _, err = run(capsys, "oracle", "--measure", "gsr", "--n", "7")
    assert code == 2
    assert "cap" in err


def test_unknown_measure_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "sample-order",
        "--measure",
        "warp",
        "--samples",
        "5",
        "--seed",
        "1",
    )
    assert code == 2
    assert "error:" in err


def test_sampler_shorthand_reads_measure_file_and_json(tmp_path, capsys):
    """`nu_mu:FILE` and `nu_mu:{json}` resolve as `--measure` does."""
    spec = {"gaps": [{"lo": "1/4", "hi": "1/2", "atom_side": "left"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    common = ("--n", "3", "--samples", "20", "--seed", "1")
    _, expected, _ = run(capsys, "step", "--measure", str(path), *common)
    for sampler in (f"nu_mu:{path}", "nu_mu:" + json.dumps(spec)):
        code, out, err = run(capsys, "step", "--sampler", sampler, *common)
        assert (code, err) == (0, "")
        assert out == expected


def test_sampler_shorthand_rejects_a_mixture(capsys):
    spec = {"mixture": [{"weight": "1", "measure": "gsr"}]}
    code, _, err = run(
        capsys, "step", "--sampler", "nu_mu:" + json.dumps(spec),
        "--n", "3", "--samples", "2", "--seed", "1",
    )
    assert code == 2 and "plain measure" in err


def test_mixture_json_measure(capsys):
    spec = json.dumps(
        {
            "mixture": [
                {"weight": "1/2", "measure": {"gaps": [{"lo": "0", "hi": "1", "atom_side": "right"}]}},
                {"weight": "1/2", "measure": {"gaps": [{"lo": "0", "hi": "1", "atom_side": "left"}]}},
            ]
        }
    )
    code, out, _ = run(
        capsys,
        "sample-order",
        "--measure",
        spec,
        "--n",
        "3",
        "--samples",
        "50",
        "--seed",
        "21",
    )
    assert code == 0
    body = [
        l
        for l in out.strip().splitlines()[1:]
        if not l.startswith("#")
    ]
    assert set(body) <= {"123", "321"}


def _rows_and_histogram_per_row(rows):
    """The per-row formatter the vectorised one replaces, as the reference."""
    counts = {}
    lines = []
    for row in rows:
        p = tuple(int(v) for v in row)
        counts[p] = counts.get(p, 0) + 1
        lines.append(perm_to_str(p))
    return lines, [(perm_to_str(p), c) for p, c in sorted(counts.items())]


@pytest.mark.parametrize("n, size", [(4, 3000), (9, 3000), (10, 3000), (12, 500), (4, 0), (10, 0)])
def test_rows_and_histogram_matches_per_row_formatting(n, size):
    rng = make_rng(n)
    pool = np.argsort(rng.random((40, n)), axis=1) + 1
    rows = pool[rng.integers(0, 40, size)]
    lines, hist = _rows_and_histogram(rows)
    want_lines, want_hist = _rows_and_histogram_per_row(rows)
    assert lines == want_lines
    assert list(hist.items()) == want_hist


def test_zero_samples(capsys):
    code, out, _ = run(capsys, "step", "--measure", "gsr", "--n", "4", "--samples", "0", "--seed", "1")
    assert code == 0 and out == "permutation\n# histogram\n"


def test_step_rejects_zero_cards(capsys):
    code, out, err = run(capsys, "step", "--measure", "gsr", "--n", "0", "--samples", "3", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: need at least one card\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("step", "--measure", "gsr", "--n", "3", "--samples", "-1"), "samples = -1 is negative"),
        (("sample-order", "--measure", "gsr", "--n", "3", "--samples", "-1"), "samples = -1 is negative"),
        (("walk", "--sampler", "nu_mu:gsr", "--n", "3", "--steps", "-1"), "steps = -1 is negative"),
        (("verify", "--measure", "gsr", "--samples", "-1"), "samples = -1 is negative"),
    ],
    ids=["step", "sample-order", "walk", "verify"],
)
def test_negative_counts_name_the_option(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
