#!/usr/bin/env python3
"""FlexPipe benchmark: builds the benchmark program from source and runs one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload steady_decode --seed 42 --seconds 30 --trace 0

The program is built in Release mode under .bench_build/perfbench (or under
$CARGO_TARGET_DIR/perfbench when that is set): from scratch on the first run, as a
no-op on later ones.
Human-readable lines go first; the last line of standard output is one JSON object
with exactly the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list.

attempted counts the simulated runs the program made and failed those whose checks
failed: the exactly-once ledger after the drain, an identical output digest on every
run of the seed, and (traced) an identical digest with and without the probes.

With --trace 0 the batch digest is compared with the one recorded for the (workload,
seed) in perfbench/digests.json; a difference is reported, since it means the
simulated outputs changed. --record stores the run's digest there as well. A traced
run covers half of the batch, so its digest is not compared.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
BINARY = "flexpipe_perfbench"
# The program stops starting runs after --seconds; one more run and the set-up samples
# fit well inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures and builds incrementally (a no-op when nothing changed); returns the
    binary's path."""
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    log_path = build_dir + ".log"
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                        stdin=subprocess.DEVNULL, check=False)
            except OSError as e:
                fail(f"cannot run {step[0]}: {e}")
            if result.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(build_dir, BINARY)


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except OSError:
        return {}
    except ValueError as e:
        fail(f"cannot parse {DIGESTS}: {e}")


def check_digest(args, digest, errors):
    """Compares the batch digest with the recorded one; with --record, stores it."""
    digests = load_digests()
    recorded = digests.get(args.workload, {}).get(str(args.seed))
    if recorded is None:
        print(f"perfbench: no recorded digest for {args.workload} seed {args.seed}")
    elif recorded != digest:
        print(f"perfbench: SIMULATED OUTPUTS CHANGED: digest {digest} differs "
              f"from the recorded {recorded}")
    else:
        print("perfbench: digest matches the recorded one")
    if args.record:
        if errors:
            fail("not recording the digest of a run whose checks failed")
        digests.setdefault(args.workload, {})[str(args.seed)] = digest
        with open(DIGESTS, "w") as f:
            json.dump({w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                       for w, d in sorted(digests.items())}, f, indent=2)
            f.write("\n")
        print(f"perfbench: recorded digest for {args.workload} seed {args.seed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest in perfbench/digests.json")
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within [0, 60]")
    if args.record and args.trace:
        fail("--record needs --trace 0: a traced run covers half of the batch")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, text=True, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        fail(f"{BINARY} did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"{BINARY} exited with code {result.returncode}")
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{BINARY} printed no result")

    errors = list(report["errors"])
    metrics = report["metrics"]
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        errors.append(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name in units:
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} is not a finite number: {value!r}")

    build_info = report["build"]
    requests = report["requests"]
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={report['runs']} wall={time.monotonic() - started:.1f}s")
    print(f"perfbench: build={build_info['type']} compiler=\"{build_info['compiler']}\" "
          f"nproc={build_info['nproc']}")
    # Summed over the batch's universes: the sample sizes behind the percentiles. A
    # request that was not completed was shed at admission (the ledger checks this).
    print(f"perfbench: requests sent={requests['sent']} succeeded={requests['completed']} "
          f"failed={requests['sent'] - requests['completed']} (shed={requests['shed']})")
    print(f"perfbench: digest={report['digest']}")

    if not args.trace:
        check_digest(args, report["digest"], errors)
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}")

    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": report["runs"],
        "failed": max(report["failed_runs"], 0 if correct else 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))


if __name__ == "__main__":
    main()
