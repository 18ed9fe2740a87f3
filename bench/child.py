"""Child processes of the benchmark, each a fresh interpreter.

    child.py setup CONFIG...            import choi_moments, load and build each
                                        config (a path or a bundled name)
    child.py cli SPANS_JSON ARG...      run choi_moments.cli.main(ARGS) with the
                                        layer wrappers installed; write the spans
                                        to SPANS_JSON; exit with main's code
"""

import json
import sys


def setup(configs) -> int:
    from choi_moments import config

    for name in configs:
        path = name if name.endswith(".cfg") else config.bundled_scenario_path(name)
        config.build_generator(config.load_scenario(path))
    return 0


def traced_cli(spans_path, argv) -> int:
    import choi_moments.cli
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = tracer.span("op", choi_moments.cli.main)(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    sys.exit(traced_cli(rest[0], rest[1:]))
