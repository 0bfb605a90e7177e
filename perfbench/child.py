"""One `pathpatch all` invocation in a fresh process.

    python3 perfbench/child.py RESULT_JSON [--trace] [--entering] -- CLI_ARGS...

Times the import of `pathpatch.cli` (set-up) and `cli.run` (the
invocation, including writing the result files), and records the
process's peak RSS. With --trace, the calls into each module's public
functions are wrapped from outside for the duration of `cli.run` only;
with --entering it also measures the share of (patch, case) pairs whose
unpatched run enters the patched block. Without --trace nothing is
wrapped and the tracer is never imported.
"""

import sys
import time

t0 = time.perf_counter()
import pathpatch.cli as cli  # noqa: E402

t1 = time.perf_counter()


def main() -> int:
    split = sys.argv.index("--")
    result_path, *flags = sys.argv[1:split]
    argv = sys.argv[split + 1:]
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wrapped = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.startswith("pathpatch")
        for attr, value in vars(module).items()
        if callable(value) and hasattr(value, "__wrapped__")
    ]
    start = time.perf_counter()
    try:
        code = cli.run(argv)
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.restore()

    import json
    import resource

    result = {
        "exit": code,
        "setup_s": t1 - t0,
        "all_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tracer_loaded": "tracer" in sys.modules,
        "wrapped": wrapped,
        "pathpatch_file": cli.__file__,
    }
    if tracer is not None:
        from tracer import entering_share, layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
        if "--entering" in flags:
            result["entering"] = entering_share(tracer)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
