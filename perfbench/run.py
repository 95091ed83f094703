"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sensor_fleet --seed 1 \
        --seconds 16 --trace 0 [--out report.json]

Workloads: ``sensor_fleet``, ``mixed_tenants`` (see ``served.py``) and
``keyring_detect`` (see ``keyring_detect.py``).  ``--seconds`` sizes the
fixed work of a run; inputs come from ``--seed`` alone.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` reports the per-layer metrics instead: it repeats the
workload untraced (for ``/proc``, STATUS, wire and reference-run
figures, and as the base of ``trace.overhead_ratio``), then once more
with spans recorded around the calls into each layer.

Each metric is printed with its unit and sample count, then the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit, names and units as listed in
``BENCHMARK.json``).  A metric that does not apply to the workload is
reported as 0 with 0 samples and flagged in the table.  ``--out`` also
writes the table, with sample counts, as JSON to that path.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sensor_fleet", "mixed_tenants", "keyring_detect")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the detailed report here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _catalog(trace: int) -> "dict[str, str]":
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    _import_program()
    # Let SIGTERM unwind through every ``finally``: spawned servers are
    # reaped and working directories removed even when the run is cut.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from repro.experiments.throughput import machine_calibration

    import keyring_detect
    import served

    catalog = _catalog(args.trace)
    calibration = machine_calibration()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        module = (keyring_detect if args.workload == "keyring_detect"
                  else served)
        report = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    measured = dict(report["metrics"])
    if args.trace:
        measured["host.calibration_us"] = (calibration, 1)

    unknown = sorted(set(measured) - set(catalog))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    metrics, detail, absent = {}, {}, []
    for name, unit in catalog.items():
        if name not in measured:
            if not args.trace:
                raise SystemExit(f"perfbench: {args.workload} did not "
                                 f"measure {name}")
            absent.append(name)
            value, samples = 0, 0
        else:
            value, samples = measured[name]
            if value is None or not math.isfinite(value):
                raise SystemExit(f"perfbench: {name} is {value} "
                                 f"({samples} samples)")
        metrics[name] = {"value": value, "unit": unit}
        detail[name] = {"value": value, "unit": unit, "n": samples}
        print(f"{name:40s} {value:>14.6g} {unit:8s} n={samples}"
              + ("  (does not apply)" if name in absent else ""))

    correct = report["failed"] == 0
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host_calibration_us": calibration,
                       "correct": correct, "attempted": report["attempted"],
                       "failed": report["failed"], "not_applicable": absent,
                       "metrics": detail}, handle, indent=2)
    print(f"host calibration {calibration:.6g} us/item; "
          f"{report['failed']} of {report['attempted']} operations failed")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
