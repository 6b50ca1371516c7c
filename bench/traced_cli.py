"""Run `qfimax.cli.main` with spans recorded, for the traced run.

Usage: python3 bench/traced_cli.py STATS_FILE <qfimax command line ...>
The report goes to standard output as with `python -m qfimax.cli`; the span
totals go to STATS_FILE as JSON {name: [calls, self_ns]}.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    import qfimax.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = qfimax.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    Path(stats_file).write_text(json.dumps(tracer.take()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
