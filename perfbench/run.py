"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload codec-matrix --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the run context.  Any failed correctness check
makes the run exit 1 with no metric.  ``--record FILE`` also appends
the context and the result to ``FILE`` as one JSON line, for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("codec-matrix", "serve-light", "serve-mixed")
#: The default seed, and the held-out seed a claimed gain must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Seconds of the alternating untraced/traced serve-light probe that
#: traced codec-matrix and serve-mixed runs add.
PROBE_S = 6.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append context + result to this file")
    return parser.parse_args(argv)


def inprocess_layers(arrays, gate) -> dict:
    """Layer figures timed in process on a workload's own arrays: one
    clocked pass of every fixed codec, the selection layer, the client's
    wire coding and tenant accounting."""
    import codec_matrix
    import layers
    import repro

    cells = codec_matrix.build_cells(arrays, repro.compressor_names())
    codec_matrix.run_cells(cells, 0.0, gate, clocked=True)
    return {
        **layers.codec_layers(cells),
        **layers.select_layers(arrays, cells),
        **layers.wire_layers(arrays),
        **layers.tenant_layers(),
    }


def run_traced(workload: str, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    import codec_matrix
    import layers
    import serving

    if workload == "codec-matrix":
        codec_matrix.first_calls(seed)
        arrays = codec_matrix.make_arrays(seed, codec_matrix.DATASETS,
                                          codec_matrix.ARRAYS)
        # The service layers are off this workload's path: a short traced
        # serve-light probe stands in for them.
        values = serving.traced_light(serving.LightMix(seed, gate), gate, PROBE_S)
        values.update(layers.wire_layers(arrays))
        values.update(layers.tenant_layers())
        cells = codec_matrix.build_cells(arrays, codec_matrix.codecs())
        loop = codec_matrix.run_cells(cells, seconds, gate, clocked=True,
                                      passes=codec_matrix.PASSES)
        values.update(layers.codec_layers(cells))
        values.update(layers.select_layers(arrays, cells))
        values["loadgen.late_p95_ms"] = 1e3 * layers.percentile(loop["gaps_s"], 95)
        context = {"elements": {n: int(a.size) for n, a in arrays}}
    elif workload == "serve-light":
        mix = serving.LightMix(seed, gate)
        values = inprocess_layers(one_per_dataset(mix.arrays), gate)
        values.update(serving.traced_light(mix, gate, seconds))
        context = {"elements": {n: int(a.size) for n, a in mix.arrays}}
    else:
        mixed = serving.Mixed(seed, seconds, gate)
        values = inprocess_layers(one_per_dataset(mixed.mix.arrays + mixed.bulk), gate)
        values.update(serving.traced_mixed(mixed))
        # Tracing's cost comes from a serve-light probe, as on codec-matrix:
        # the two bulk passes differ in the bandit's choices, not only in
        # tracing.
        probe = serving.traced_light(mixed.mix, gate, PROBE_S)
        values.update({k: probe[k] for k in layers.TRACING_OVERHEAD})
        context = serving.mixed_context(mixed)
    return layers.finish(values), context


def one_per_dataset(arrays):
    seen = {}
    for name, array in arrays:
        seen.setdefault(name, (name, array))
    return list(seen.values())


def run_untraced(workload: str, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    import codec_matrix
    import serving

    runner = {
        "codec-matrix": codec_matrix.run,
        "serve-light": serving.run_light,
        "serve-mixed": serving.run_mixed,
    }[workload]
    return runner(seed, seconds, gate)


def check_names(metrics: dict, section: str) -> None:
    """The run reports exactly the metrics ``BENCHMARK.json`` lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(got.items()) ^ set(expected.items()))}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import OUT_DIR, Gate, run_context

    os.environ.pop("FCBENCH_JOBS", None)
    os.environ["FCBENCH_CACHE_DIR"] = str(OUT_DIR / "cache")

    context = run_context(workload=args.workload, seed=args.seed,
                          seconds=args.seconds, trace=args.trace)
    gate = Gate()
    run = run_traced if args.trace else run_untraced
    metrics, extra = run(args.workload, args.seed, args.seconds, gate)
    context.update(extra, loadavg_end=list(os.getloadavg()),
                   client_cpus=sorted(os.sched_getaffinity(0)))
    check_names(metrics, "per_layer" if args.trace else "end_to_end")
    ok = gate.failed == 0
    result = {
        "correct": ok,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics if ok else {},
    }
    if not ok:
        print("correctness gate failed: " + "; ".join(gate.reasons),
              file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"context": context, "result": result}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
