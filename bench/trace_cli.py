"""Run the uavvlc CLI in this process with spans around calls into its modules.

    python3 bench/trace_cli.py SRC_DIR SUMMARY_JSON SPANS_CSV -- CLI_ARGS...

Imports the package from SRC_DIR, installs the tracer, runs ``cli.main``
inside a ``cli.main`` span and exits with the CLI's status.  After the CLI
returns it writes every span to SPANS_CSV and a summary to SUMMARY_JSON:
the per-layer metrics, the self time per span name, the import time, the
``cli.main`` duration, and ``post_s``, the time spent on this
post-processing, which the caller subtracts from the process wall time.
"""

import json
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics, self_time_by_name


def main() -> int:
    src, summary_path, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SRC_DIR SUMMARY_JSON SPANS_CSV -- CLI_ARGS...")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import uavvlc
    from uavvlc import cli
    import_s = time.perf_counter() - t0
    if not Path(uavvlc.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"uavvlc imported from {uavvlc.__file__}, not {src}")

    tracer = Tracer()
    tracer.install(uavvlc)
    with tracer.span("cli.main") as root:
        code = cli.main(cli_args)

    t_post = time.perf_counter()
    summary = {
        "exit": code,
        "import_s": import_s,
        "main_s": root.duration,
        "spans": len(tracer.spans),
        "layers": layer_metrics(tracer.spans),
        "self_by_name": self_time_by_name(tracer.spans),
    }
    tracer.write_spans(Path(spans_path))
    summary["post_s"] = time.perf_counter() - t_post
    Path(summary_path).write_text(json.dumps(summary, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
