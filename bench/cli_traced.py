"""Traced CLI process: ``python3 -X importtime bench/cli_traced.py ARGS``.

Installs the span recorder over the library and the CLI's ``cmd_*``
functions, runs ``quasishuffle.cli.main(ARGS)``, and writes the self times,
counts and cache sizes to the JSON file named by ``BENCH_TRACE_OUT``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import quasishuffle  # noqa: E402
import quasishuffle.cli  # noqa: E402
from tracing import Recorder  # noqa: E402


def main() -> int:
    rec = Recorder(quasishuffle)
    rec.install()
    try:
        code = quasishuffle.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse exits after --version
        code = exc.code if isinstance(exc.code, int) else 0
    finally:
        rec.uninstall()
        sys.stdout.flush()
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(
                {
                    "self": rec.self_times(),
                    "counts": dict(rec.counts),
                    "cache_entries": rec.cache_entries(),
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
