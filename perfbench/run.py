#!/usr/bin/env python3
"""End-to-end publish -> tpbsd -> handler benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small_typed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

It builds perfbench/e2e.exe with dune (the repository's own libraries,
from source), runs it for one workload, relays its report and prints,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see spec.json for
what each one means and which end-to-end metric it should move).

--smoke runs every workload at a small size in both modes and checks
that no delivery failed, that the broker encoded at most one Deliver per
publish, that the subscriber dropped no duplicate, that the traced
stages add up for every event, and that every metric is reported.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "e2e.exe")
TRACE_DIR = ".perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def load_spec():
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


def build():
    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/e2e.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run_once(spec, workload, seed, seconds, trace, setups=None):
    """Run the benchmark program once; return its parsed result or None."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rate", str(spec["workloads"][workload]["open_loop_rate_eps"])]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-dir", TRACE_DIR]
    # Own session, so the forked broker child can be reaped as a group.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if p.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {p.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: no result line", file=sys.stderr)
        return None
    expected = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    missing = [n for n in expected if n not in result.get("metrics", {})]
    if missing:
        print(f"perfbench: metrics missing: {missing}", file=sys.stderr)
        return None
    return result


def smoke(spec):
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            r = run_once(spec, workload, seed=7, seconds=2, trace=trace, setups=2)
            if r is None:
                ok = False
                continue
            m = {k: v["value"] for k, v in r["metrics"].items()}
            checks = [("no failed delivery or publish", r["correct"] and r["failed"] == 0)]
            if trace:
                checks += [
                    ("error_rate = 0", m["error_rate"] == 0),
                    ("broker.deliver_encodes_per_pub <= 1", m["broker.deliver_encodes_per_pub"] <= 1),
                    ("client_sub.dup_drops = 0", m["client_sub.dup_drops"] == 0),
                    ("stages add up for every event", m["stage.incomplete"] == 0),
                ]
            for what, good in checks:
                print(f"smoke {workload} trace={trace}: {what}: {'ok' if good else 'FAILED'}")
                ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if not args.smoke and args.workload not in spec["workloads"]:
        ap.error(f"--workload must be one of {', '.join(spec['workloads'])}")
    if not build():
        sys.exit(1)
    if args.smoke:
        sys.exit(0 if smoke(spec) else 1)
    result = run_once(spec, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
