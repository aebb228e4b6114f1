"""Benchmark of quasishuffle: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {mc-sample,exact,cli,all} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src`` without
installing it.  With ``--trace 0`` the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
``--workload all`` runs the three workloads in turn and prints a table.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("mc-sample", "exact", "cli")
# Set-up is sampled this many times per run, spread over the run, and
# reported by its fastest sample, as the operations are: other tenants of
# a shared host only ever add time.
SETUP_SAMPLES = 5
# Length of one round, checks included, on the 2-core host of the figures
# in README.md.  A run takes round(--seconds / ROUND_S) rounds, so that the
# number of repetitions an operation's best time is taken over is the same
# for fast and slow code.
ROUND_S = {"mc-sample": 5.0, "exact": 5.5, "cli": 21.0}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cards_per_s", "cards/s"),
    ("proc_p50_s", "s"),
)
CLI_SUBCOMMANDS = (
    "version", "sample-order", "step", "walk", "verify", "mixing", "shuffle-map", "oracle",
)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, stdout_path, stderr_path, env):
    """Run one process to its end; return (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def read(path) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def forward_stderr(path) -> None:
    """Copy a child's stderr to ours, leaving out -X importtime lines."""
    for line in read(path).splitlines():
        if not line.startswith("import time:"):
            print(line, file=sys.stderr)


def rounds_for(workload, seconds, trace) -> int:
    """Rounds of a run: at least one, and two when untraced and traced
    rounds must alternate."""
    return max(1 + trace, round(seconds / ROUND_S[workload]))


def layer_metrics(self_rounds, count_rounds, cache, imports, overhead, cli=None) -> dict:
    """Per-layer metrics: medians over traced rounds; zero where unused."""
    from tracing import COUNTS, SELF_LAYERS

    out = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (statistics.median(r.get(layer, 0.0) for r in self_rounds), "s")
    for name in COUNTS:
        out[name] = (statistics.median(r.get(name, 0) for r in count_rounds), "count")
    out["measure.cache_entries"] = (cache, "count")
    for key, name in (("quasishuffle", "import.quasishuffle_s"), ("scipy.stats", "import.scipy_stats_s")):
        out[name] = (statistics.median(t.get(key, 0.0) for t in imports) if imports else 0.0, "s")
    cli = cli or {}
    out["cli.stdout_bytes"] = (cli.get("stdout_bytes", 0), "bytes")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.proc.{sub}_s"] = (cli.get(sub, 0.0), "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


# -- mc-sample and exact: one measured worker process ------------------------


def run_in_process(workload, seed, seconds, trace) -> dict:
    from tracing import import_times

    env = child_env()
    worker = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    setups, imports = [], []
    result = None
    before = SETUP_SAMPLES // 2
    for i in range(SETUP_SAMPLES):
        measured = i == before
        argv = worker + (["--rounds", str(rounds_for(workload, seconds, trace)),
                          "--trace", str(trace)] if measured else ["--setup-only"])
        err_path = os.path.join(WORK, f"{workload}-{i}.err")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            ready = proc.stdout.readline().decode().strip()
            setups.append(time.perf_counter() - t0)
            lines = proc.stdout.read().decode().splitlines()
            proc.stdout.close()
            code = proc.wait()
        forward_stderr(err_path)
        if ready != "READY" or code != 0:
            raise SystemExit(f"{workload} worker failed (exit {code})")
        if trace:
            imports.append(import_times(read(err_path)))
        if measured:
            result = json.loads(lines[-1])
    wall = result["wall_s"]
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    if not trace:
        metrics = {
            "setup_s": min(setups),
            "wall_s": wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "cards_per_s": result["cards"] / wall,
            "proc_p50_s": wall / result["ops"],
        }
        out["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    else:
        rounds = result["layers"]
        layers = layer_metrics(
            [r[0] for r in rounds], [r[1] for r in rounds], max(r[2] for r in rounds),
            imports, result["traced_wall_s"] - wall)
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return out


# -- cli: one process per command -------------------------------------------


def run_cli(seed, seconds, trace) -> dict:
    import cli_load
    from reference import self_check
    from tracing import import_times

    env = child_env()
    module = [sys.executable, "-m", "quasishuffle.cli"]
    traced_cli = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_traced.py")]
    out_path, err_path = os.path.join(WORK, "cli.out"), os.path.join(WORK, "cli.err")
    trace_path = env["BENCH_TRACE_OUT"] = os.path.join(WORK, "cli-trace.json")
    setups = []

    def sample_setup(count):
        for _ in range(count):
            elapsed, code, _ = spawn(module + ["--version"], out_path, err_path, env)
            if code != 0:
                forward_stderr(err_path)
                raise SystemExit(f"quasishuffle.cli --version failed (exit {code})")
            setups.append(elapsed)

    sample_setup(SETUP_SAMPLES // 2)
    cmds = cli_load.commands(seed)
    untraced, traced, proc_times, sub_rounds, rss = [], [], [], [], []
    self_rounds, count_rounds, imports, caches, stdout_bytes = [], [], [], [], []
    attempted = failed = 0
    unexpected = {}
    for index in range(rounds_for("cli", seconds, trace)):
        tracing = trace and index % 2 == 1
        total, times, subs, selfs, counts, nbytes = 0.0, [], {}, {}, {}, 0
        for cmd in cmds:
            argv = (traced_cli if tracing else module) + cmd.argv
            elapsed, code, peak = spawn(argv, out_path, err_path, env)
            attempted += 1
            total += elapsed
            subs[cmd.subcommand] = subs.get(cmd.subcommand, 0.0) + elapsed
            text = read(out_path)
            nbytes += len(text.encode())
            why = f"exit code {code}: {read(err_path)[-300:]}" if code != 0 else cmd.check(text)
            if why:
                failed += 1
                unexpected[cmd.name] = why
            if tracing:
                imports.append(import_times(read(err_path)))
                with open(trace_path) as fh:
                    rec = json.load(fh)
                for k, v in rec["self"].items():
                    selfs[k] = selfs.get(k, 0.0) + v
                for k, v in rec["counts"].items():
                    counts[k] = counts.get(k, 0) + v
                caches.append(rec["cache_entries"])
            else:
                times.append(elapsed)
                rss.append(peak)
        if tracing:
            traced.append(total)
            self_rounds.append(selfs)
            count_rounds.append(counts)
        else:
            untraced.append(total)
            proc_times.append(times)
            sub_rounds.append(subs)
            stdout_bytes.append(nbytes)
    sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    for line in self_check():
        unexpected["reference self-check"] = line
    for name, why in sorted(unexpected.items()):
        print(f"FAILED {name}: {why}", file=sys.stderr)
    # each command's fastest process over the run's rounds, as in-process
    best = [min(col) for col in zip(*proc_times)]
    wall = sum(best)
    out = {"correct": not unexpected, "attempted": attempted, "failed": failed}
    if not trace:
        metrics = {
            "setup_s": min(setups),
            "wall_s": wall,
            "peak_rss_mb": max(rss),
            "cards_per_s": sum(c.cards for c in cmds) / wall,
            "proc_p50_s": statistics.median(best),
        }
        out["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    else:
        cli = {sub: statistics.median(r.get(sub, 0.0) for r in sub_rounds) for sub in CLI_SUBCOMMANDS}
        cli["stdout_bytes"] = statistics.median(stdout_bytes)
        layers = layer_metrics(self_rounds, count_rounds, max(caches), imports,
                               min(traced) - min(untraced), cli)
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return out


# -- all workloads ------------------------------------------------------------


def run_all(seed, seconds, trace) -> int:
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, cwd=ROOT, check=False)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.decode().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quasishuffle", "__init__.py")):
        print("error: src/quasishuffle not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "cli":
        result = run_cli(args.seed, args.seconds, args.trace)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
