"""Run one hoptrace command under the benchmark's span wrappers.

    python3 hopbench/answer_traced.py SPANS.json answer "who directed [Movie_3]" --checkpoint ...

Times ``import hoptrace.cli`` as the ``cli.import`` span, runs the command
with every wrapper installed, and writes the per-layer totals to SPANS.json
for the parent run to add to its current round.  hoptrace must be importable
(the parent puts ``src`` on PYTHONPATH).
"""

import json
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from hoptrace import cli
    with tracer.installed():
        code = cli.main(argv)
    out.write_text(json.dumps(tracer.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
