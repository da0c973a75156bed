"""Run one ``uisearch`` command with its start-up and layers timed.

Usage: ``PYTHONPATH=src python3 bench/clirun.py <uisearch arguments>``.
Stdout and the exit code are the command's own. The last line on
stderr is a JSON object with the import time of ``uisearch.cli``, the
time spent in ``main``, and the spans of ``parse_config`` and
``simulate_spell`` calls.
"""

import json
import sys
import time

started = time.perf_counter()
import uisearch.cli  # noqa: E402
imported = time.perf_counter()

from layers import Recorder, patched  # noqa: E402

recorder = Recorder()
with patched(recorder, {"config.parse_config": None,
                        "montecarlo.simulate_spell": None}):
    begun = time.perf_counter()
    code = uisearch.cli.main(sys.argv[1:])
    ended = time.perf_counter()
sys.stdout.flush()
spans = {}
for span in recorder.spans:
    spans.setdefault(span.name, []).append(span.dur_ns)
print(json.dumps({"import_ms": 1e3 * (imported - started),
                  "main_ms": 1e3 * (ended - begun), "spans_ns": spans}),
      file=sys.stderr)
sys.exit(code)
