"""``python -m ranklab`` with the span tracer installed, for the ``cli`` workload.

Usage: ``python3 perfbench/traced_cli.py COMMAND [ARGS...]`` with ``src`` on
``PYTHONPATH``.  The report goes to stdout as usual; the collected per-layer
block is printed as the last line of stderr.
"""

import json
import sys

import tracer

import ranklab.cli

if __name__ == "__main__":
    spans = tracer.Tracer()
    spans.install()
    code = ranklab.cli.run(sys.argv[1:])
    spans.uninstall()
    sys.stdout.flush()
    print(json.dumps(spans.collect()), file=sys.stderr)
    sys.exit(code)
