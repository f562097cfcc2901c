"""``repro serve`` with the service layer wrappers installed.

Usage::

    python perfbench/serve.py --summary OUT.json --spans SPANS.json -- <repro serve flags>

Installs the request-path wrappers from ``tracing.py``, then runs the
unchanged CLI entry point, which serves until Ctrl-C.  On exit it
writes every span and a summary of the measured window: the requests
between the load generator's first and second ``stats`` marker.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import (  # noqa: E402
    END,
    NAME,
    START,
    Instrumentation,
    SpanLog,
    layer_summary,
)


class Window:
    """The measured window, opened and closed by the marker request."""

    def __init__(self):
        self.start = self.end = None
        self.counts = {}

    def mark(self, log: SpanLog) -> None:
        """First call opens the window, the second closes it."""
        if self.start is None:
            log.counts.clear()
            self.start = perf_counter()
        elif self.end is None:
            self.end = perf_counter()
            self.counts = dict(log.counts)


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])
    log = SpanLog()
    window = Window()
    instrumentation = Instrumentation(log)
    instrumentation.install_service_layers(window)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv[split + 1:]])
    instrumentation.remove()

    trace_path = Path(args.spans)
    log.write(trace_path)
    end = window.end if window.end is not None else perf_counter()
    start = window.start if window.start is not None else end
    roots = [s for s in log.spans
             if s[NAME] == "service.request" and start <= s[START] <= end
             and s[END] <= end]
    summary = layer_summary(log.spans, roots)
    summary.update(counts=window.counts, requests=len(roots),
                   spans_total=len(log.spans), trace=str(trace_path))
    Path(args.summary).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
