"""One snaflow CLI subcommand in a fresh interpreter, timed from inside.

    python3 bench/child.py SPEC.json

SPEC names the source tree, the config file, the subcommand, the output
directory and the result file. The child imports snaflow, loads the config
with ``load_config`` and notes the monotonic clock (the parent took it just
before starting the interpreter, so the difference is the set-up time). It
then times ``snaflow.cli.main`` on the subcommand, exactly as the command line
runs it: the call ends when the last artifact has been written. With
``trace`` set, spans are recorded at the layer boundaries and saved after the
timed call.
"""
import json
import os
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from snaflow import cli
    from snaflow.config import load_config

    with open(spec["config"]) as fh:
        raw = json.load(fh)
    t0 = time.perf_counter()
    load_config(raw)
    result = {"config_load_s": time.perf_counter() - t0, "ready": time.monotonic()}

    if spec["subcommand"] is not None:
        recorder = None
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        t0 = time.perf_counter()
        result["exit"] = cli.main([spec["subcommand"], "--config", spec["config"],
                                   "--out", spec["out"]])
        result["wall_s"] = time.perf_counter() - t0
        if recorder is not None:
            recorder.save(spec["spans"])

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
