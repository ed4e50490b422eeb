"""Benchmark of the mgsgan package: training epochs per mode, eval and export.

Run from the repository root:

    python3 perfbench/run.py --workload acc4x64 --seed 1 --seconds 15 --trace 0

Workloads (the seed makes the synthetic data, the split and the train seeds):

* ``acc4x64``: the acceptance shape, 4 classes x 64 bands, sizes 500/500/500/10,
  overlap 0.85, tttr 0.3, uniform priors. Rounds of 4-epoch train() calls over
  mgsgan, acsgan and achsgan for ``--seconds`` (at least two rounds), each
  followed by eval/export of the round's checkpoints on a BIN copy of the
  data (at least three). Small tensors: per-op Python cost, the tape walk and
  the finiteness scan weigh most.
* ``ip16x200``: the same on the Indian Pines shape, 16 classes x 200 bands with
  the real class counts, overlap 0.5, tttr 0.1, empirical priors, in rounds of
  3-epoch calls. Longer spectra and a bank of 16 generators.
* ``eval16x200``: the same data; set-up trains 2-epoch checkpoints of every
  mode for three seeds, then ``mgsgan eval --run-dir`` over the mgsgan seeds on
  the CSV against acsgan and ``mgsgan export-spectra`` on the BIN copy,
  in-process, for ``--seconds`` (at least three evals). Forward only.

Every eval is followed by three export-spectra runs, which are short.

``--trace 0`` prints the end-to-end metrics; each workload reports all of them
(eval16x200 takes its training metrics from its set-up). Epoch 0 of every
train() call is warm-up and is left out of the epoch and step samples.

``--trace 1`` prints per-layer metrics from the hooks in ``hooks.py``; training
ones are per epoch of the traced calls and reported as ``<mode>.<name>``. A
traced run traces every second train() round (or a second copy of each
set-up training) and eval/export pair, so it also reports the tracing
overhead as traced minus untraced epoch seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record (environment, sample counts,
fingerprints, failures) is written to ``.perfbench/results/``. The exit code is
0 only when every operation passed its output checks.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of .pyc files

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _blas():
    """BLAS name, version and the thread count it runs with (left at its default)."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    record["threads"] = fn()
                    return record
    return record


def environment(args):
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mgsgan" / "__init__.py").is_file():
        print(f"perfbench: no mgsgan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metrics as m
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload, shape, epochs = WORKLOADS[args.workload]
    env = environment(args)
    out_dir = ROOT / ".perfbench"
    # named by the run's arguments, not its pid, so eval's report repeats across runs
    work = out_dir / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, trace=bool(args.trace))
    run.clock.install()
    try:
        setup_s, parts = workload(run, shape, args.seed, args.seconds, epochs)
    finally:
        run.clock.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, specs = m.per_layer(run, parts), m.per_layer_specs()
    else:
        values, specs = m.end_to_end(run, setup_s, parts), m.end_to_end_specs()
    missing = [name for name, _ in specs if name not in values]
    failed = len(run.failures)
    correct = failed == 0 and not missing

    print(f"environment: {json.dumps(env)}")
    for key, digests in sorted(run.fingerprints.items()):
        print(f"fingerprint {key}: {digests}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if missing:
        print(f"FAILED no samples for {', '.join(missing)}")
    for name, unit in specs:
        if name in values:
            value, n = values[name]
            computed = name.split(".", 1)[-1] in m.COMPUTED
            note = "  computed from operand shapes" if computed else ""
            print(f"{name:<38} {value:>16.6g} {unit:<15} n={n}{note}")
    print(f"failed_ratio {failed}/{run.attempted} = {failed / max(run.attempted, 1):.4g}")

    metrics = {name: {"value": float(values[name][0]), "unit": unit}
               for name, unit in specs if name in values}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "attempted": run.attempted, "failures": run.failures,
              "fingerprints": run.fingerprints,
              "samples": {name: values[name][1] for name in metrics}, "metrics": metrics}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
