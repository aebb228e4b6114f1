"""End-to-end command-line checks: formats, determinism, exit codes."""

import json

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
