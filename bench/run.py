"""Paper-scale benchmark of ``hiertype train`` and ``hiertype eval``.

Run from the root of a checkout:

    python3 bench/run.py --workload train-bilinear --seed 1 --seconds 30 --trace 0

A run generates the seed's inputs (untimed, cached under ``.bench_work/``;
seed n selects input set n mod ``INPUT_SETS``),
then repeats the workload's command, each time in a fresh process, until
``--seconds`` of measurement are used up (at least three times).  Every
command's outputs are checked.  End-to-end metrics (``--trace 0``) are
medians over the commands.  With ``--trace 1`` the commands alternate
between untraced and traced ones; per-layer metrics come from the traced
ones and ``trace.overhead_ratio`` compares the two.  The last line of
standard output is the result object; the line before it records the
environment.

Only process-local measurement is used: clocks and ``getrusage`` of the
benchmark's own processes, and no system-wide profiler or tracer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import MISSING_NAME_EXIT  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, Workload, generate  # noqa: E402

# Pinned so both sides of a comparison use the same BLAS threading, and
# the BLAS results, which can depend on the thread count, stay comparable
# with bench/expected.json.
BLAS_THREADS = 1
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 120
# relative tolerance on the first-epoch train loss and dev map, and on map=,
# against the values recorded when the benchmark was added (bench/expected.json)
REFERENCE_REL_TOL = 1e-6
MAP_MEAN_ABS_TOL = 1e-12


class CheckFailed(Exception):
    pass


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "measurement": "process-local only (monotonic clocks, getrusage); no system-wide profiler",
    }


def command_args(wl: Workload, out_dir: str) -> list[str]:
    if wl.command == "train":
        return ["train", "--config", wl.config, "--hierarchy", "hierarchy.json",
                "--train", wl.train_corpus, "--dev", wl.dev_corpus,
                "--out", os.path.join(out_dir, "model.ckpt"),
                "--history", os.path.join(out_dir, "history.tsv")]
    return ["eval", "--model", "eval.ckpt", "--hierarchy", "hierarchy.json", "--corpus", "test.jsonl",
            "--per-mention", os.path.join(out_dir, "ap.tsv")]


def run_command(root: str, wl: Workload, meta: dict, run_id: str, traced: bool) -> dict:
    """One fresh process running one hiertype command."""
    out_dir = os.path.join(root, ".bench_work", "runs", run_id)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("HIERTYPE_LOG", None)
    argv = [sys.executable, os.path.join(HERE, "child.py"), os.path.join(root, "src"), result_path,
            run_id, "1" if traced else "0", "--"] + command_args(wl, out_dir)
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=meta["dir"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    wall = time.monotonic() - start
    rec = {"run_id": run_id, "out_dir": out_dir, "traced": traced, "wall_s": wall,
           "returncode": proc.returncode, "stdout": stdout, "stderr": stderr, "spans": []}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            rec.update(json.load(fh))
    phase = [s for s in rec["spans"] if s[0] in ("cli.train", "cli.evaluate_model")]
    if phase:
        _, s0, s1, _, count, _ = phase[0]
        rec["setup_s"] = s0 - start
        rec["phase_s"] = s1 - s0
        rec["mentions"] = count * max(wl.epochs, 1)
    return rec


def _finite_floats(fields: list[str], where: str) -> list[float]:
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise CheckFailed(f"{where}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{where}: non-finite value in {fields}")
    return values


def check_command(wl: Workload, meta: dict, rec: dict) -> dict[str, float]:
    """Validate one command's outputs; returns the values compared against
    the recorded reference (first-epoch train loss and dev map, or map)."""
    if rec["returncode"] != 0:
        raise CheckFailed(f"exit code {rec['returncode']}: {rec['stderr'].strip()[-500:]}")
    if "phase_s" not in rec:
        raise CheckFailed("no train/evaluate_model phase was recorded")
    if wl.command == "train":
        from hiertype.errors import HiertypeError
        from hiertype.model import load_checkpoint

        try:
            ckpt = load_checkpoint(os.path.join(rec["out_dir"], "model.ckpt"))
        except HiertypeError as exc:
            raise CheckFailed(f"checkpoint does not reload: {exc}") from exc
        if ckpt.params.n_types != meta["n_types"]:
            raise CheckFailed(f"checkpoint has {ckpt.params.n_types} types, expected {meta['n_types']}")
        with open(os.path.join(rec["out_dir"], "history.tsv"), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
        if [r[0] for r in rows] != [str(e) for e in range(1, wl.epochs + 1)]:
            raise CheckFailed(f"history has epochs {[r[0] for r in rows]}, expected 1..{wl.epochs}")
        values = [_finite_floats(r[1:], "history.tsv") for r in rows]
        if any(len(v) != 2 for v in values):
            raise CheckFailed("history rows must be epoch, train_loss, dev_map")
        return {"train_loss": values[0][0], "dev_map": values[0][1]}
    lines = rec["stdout"].strip().splitlines()
    if not lines or not lines[-1].startswith("map="):
        raise CheckFailed(f"no map= line in output {rec['stdout'][-200:]!r}")
    reported = _finite_floats([lines[-1][4:]], "map=")[0]
    with open(os.path.join(rec["out_dir"], "ap.tsv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    if (any(len(r) != 2 for r in rows)
            or [r[0] for r in rows] != [str(i) for i in range(meta["labelable"]["test"])]):
        raise CheckFailed(f"per-mention file has {len(rows)} rows, expected {meta['labelable']['test']}")
    aps = _finite_floats([r[1] for r in rows], "ap.tsv")
    if abs(sum(aps) / len(aps) - reported) > MAP_MEAN_ABS_TOL:
        raise CheckFailed(f"map={reported!r} is not the mean of the per-mention APs")
    return {"map": reported}


def discard_outputs(rec: dict) -> None:
    """Delete a checked command's large outputs; its result.json (spans) stays."""
    for name in ("model.ckpt", "history.tsv", "ap.tsv"):
        path = os.path.join(rec["out_dir"], name)
        if os.path.exists(path):
            os.remove(path)


def check_reference(values: dict[str, float], reference: dict[str, float]) -> None:
    if set(values) != set(reference):
        raise CheckFailed(f"checked values {sorted(values)} do not match the recorded {sorted(reference)}")
    for key, ref in reference.items():
        if abs(values[key] - ref) > REFERENCE_REL_TOL * abs(ref):
            raise CheckFailed(f"{key} {values[key]!r} differs from the recorded {ref!r}")


def load_reference(size: str, workload: str, input_set: int) -> dict[str, float] | None:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(size, {}).get(workload, {}).get(str(input_set))


def ops_of(wl: Workload, meta: dict) -> int:
    if wl.command == "eval":
        return meta["labelable"]["test"]
    n = meta["labelable"][wl.train_corpus.removesuffix(".jsonl")]
    return wl.epochs * -(-n // meta["batch_size"])  # train steps


def measure(root: str, wl: Workload, meta: dict, seed: int, seconds: float, trace: bool,
            reference: dict[str, float]) -> dict:
    start = time.monotonic()
    recs: list[dict] = []
    errors = []
    attempted = failed = 0
    while True:
        t0 = time.monotonic()
        # traced runs alternate untraced-traced and traced-untraced pairs, so
        # drift in machine speed does not bias trace.overhead_ratio
        order = ((False, True) if len(recs) % 4 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            run_id = f"{wl.name}-seed{seed}-{len(recs)}{'-traced' if traced else ''}"
            rec = run_command(root, wl, meta, run_id, traced)
            ops = ops_of(wl, meta)
            attempted += ops
            try:
                check_reference(check_command(wl, meta, rec), reference)
                rec["ok"] = True
            except (CheckFailed, OSError) as exc:
                rec["ok"] = False
                failed += ops
                errors.append(f"{run_id}: {exc}")
            if "phase_s" in rec:
                print(f"{run_id}: wall {rec['wall_s']:.3f} s, setup {rec['setup_s']:.3f} s, "
                      f"{rec['mentions'] / rec['phase_s']:.2f} mentions/s, ok={rec['ok']}",
                      file=sys.stderr)
            discard_outputs(rec)
            recs.append(rec)
        elapsed = time.monotonic() - start
        done = sum(1 for r in recs if not r["traced"])
        if errors or (done >= (2 if trace else MIN_COMMANDS)
                      and elapsed + (time.monotonic() - t0) > seconds):
            break
    return {"recs": recs, "errors": errors, "attempted": attempted, "failed": failed}


def end_to_end(recs: list[dict]) -> dict:
    ok = [r for r in recs if r["ok"] and not r["traced"]] or [r for r in recs if "phase_s" in r]
    if not ok:
        return {}
    return {
        "mentions_per_s": (statistics.median(r["mentions"] / r["phase_s"] for r in ok), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0 for r in ok), "MiB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "toy"), default="paper",
                        help="toy shrinks every input for smoke tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hiertype", "cli.py")):
        print(f"error: no hiertype sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    wl = WORKLOADS[args.workload]
    input_set = args.seed % INPUT_SETS
    reference = load_reference(args.size, wl.name, input_set)
    if reference is None:
        print(f"error: bench/expected.json holds no reference for {args.size} {wl.name} "
              f"input set {input_set}; record it with bench/record.py", file=sys.stderr)
        return 2
    meta = generate(root, input_set, args.size)
    run = measure(root, wl, meta, args.seed, args.seconds, bool(args.trace), reference)
    for err in run["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        missing = [r for r in run["recs"] if r["traced"] and r["returncode"] == MISSING_NAME_EXIT]
        if missing:
            print(missing[0]["stderr"].strip(), file=sys.stderr)
            return 3
        try:
            values = layer_metrics(wl, meta, run["recs"])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        values = end_to_end(run["recs"])
    env = environment()
    env.update(workload=wl.name, seed=args.seed, size=args.size,
               input_set=input_set, commands=len(run["recs"]),
               hierarchy={k: meta[k] for k in ("n_types", "max_depth", "mean_depth",
                                               "mean_fan_in", "max_fan_in")})
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not run["errors"] and bool(values),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
