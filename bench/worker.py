"""Measured process of the in-process workloads (mc-sample and exact).

``run.py`` starts it; it is not meant to be run by hand.  It imports the
library from ``src``, builds the workload's inputs and prints ``READY`` (the
end of set-up), then runs ``--rounds`` whole rounds of the workload's fixed
operation list.  Only the library calls are timed; each output is checked
right after its call.  A round's time is the sum, over its operations, of
each operation's fastest time in the run: other tenants of a shared host
only ever add time, and can slow a CPU by tens of percent for seconds at a
time.  The last stdout line is a JSON summary for ``run.py``.

With ``--trace 1`` untraced and traced rounds alternate, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from ops import run_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def best_round(rounds) -> float:
    """Sum over operations of each operation's fastest time in `rounds`."""
    return sum(min(col) for col in zip(*rounds))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("mc-sample", "exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quasishuffle as q

    module = __import__("mc_sample" if args.workload == "mc-sample" else "exact")
    ops = module.build(q)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder(q)
    untraced, traced, layer_rounds = [], [], []
    failed = attempted = 0
    unexpected: dict[str, str] = {}
    known: dict[str, str] = {}
    for index in range(args.rounds):
        tracing = recorder is not None and index % 2 == 1
        if tracing:
            recorder.reset()
            recorder.install()
        try:
            times, failures = run_round(ops, args.seed, index)
        finally:
            if tracing:
                recorder.uninstall()
        (traced if tracing else untraced).append(times)
        if tracing:
            layer_rounds.append(
                (recorder.self_times(), dict(recorder.counts), recorder.cache_entries())
            )
            spans = recorder.spans
        attempted += len(ops)
        failed += len(failures)
        for op in ops:
            if op.name in failures:
                (known if op.known_fault else unexpected)[op.name] = failures[op.name]

    from reference import self_check

    for line in self_check():
        unexpected["reference self-check"] = line
    for name, why in sorted(unexpected.items()):
        print(f"FAILED {name}: {why}", file=sys.stderr)
    for name, why in sorted(known.items()):
        print(f"known fault {name}: {why}", file=sys.stderr)

    out = {
        "attempted": attempted,
        "failed": failed,
        "correct": not unexpected,
        "wall_s": best_round(untraced),
        "ops": len(ops),
        "cards": sum(op.cards for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        out["traced_wall_s"] = best_round(traced)
        out["layers"] = layer_rounds
        from tracing import write

        write(os.path.join(ROOT, ".bench_work", f"trace-{args.workload}-{args.seed}.json"),
              spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
