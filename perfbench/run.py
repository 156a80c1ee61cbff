#!/usr/bin/env python3
"""Repository benchmark: open-loop serving latency, goodput and cost on named
workloads (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload direct-stable --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --calibrate          # re-measure ceilings, rewrite calibration.json
    python3 perfbench/run.py --selftest           # the benchmark's own unit tests

The first run builds the program and the benchmark binary from source into
.bench_build/.  A run prints the binary's metric table, a provenance line and,
last, one JSON object: {"correct", "attempted", "failed", "metrics"} with every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1).  Ladder rates, light/heavy steps and latency limits are read from
perfbench/calibration.json and never re-derived by a normal run.
"""
import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CALIBRATION = os.path.join(HERE, "calibration.json")
TARGETS = ["perfbench", "perfbench_selftest", "live_serving"]
# Share of the ceiling at each ladder step; light is the first, heavy the
# second.  The ladder reaches past the ceiling and stops at its first miss.
# A workload whose knee is soft may set its own "ladder_shares" with the
# step above heavy closer to it, so a step that passes on some runs and not
# on others moves goodput little.
LADDER_SHARES = [0.40, 0.75, 0.90, 1.20, 1.50]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("run from the root of a repository checkout (no CMakeLists.txt/src here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
               "--target"] + TARGETS, timeout=840)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def git(*args):
    try:
        out = subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_revision():
    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": "unknown (not a git checkout)", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(git("status", "--porcelain"))}


def driver_args(name, params, seed, seconds, trace):
    ladder = params["ladder_rps"]
    args = [os.path.join(BUILD_DIR, "perfbench"),
            "--workload=" + name, "--seed=%d" % seed, "--seconds=%g" % seconds,
            "--trace=%d" % trace, "--bin-dir=" + BUILD_DIR, "--out-dir=" + BUILD_DIR,
            "--ladder=" + ",".join("%g" % r for r in ladder),
            "--limit-ms=%g" % params["limit_ms"], "--speed=%g" % params["speed"],
            "--warmup-s=%g" % params["warmup_s"],
            "--settle-s=%g" % params.get("settle_s", 0),
            "--repeats=%d" % params.get("repeats", 1),
            "--deploy-rps=%g" % params.get("deploy_rps", 0)]
    if params.get("itl_limit_ms"):
        args.append("--itl-limit-ms=%g" % params["itl_limit_ms"])
    return args


def run_driver(args, timeout=170):
    """Runs the benchmark binary, echoes its table, returns its machine line."""
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    sys.stderr.write(proc.stderr)
    machine = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH "):
            machine = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if machine is None or proc.returncode not in (0, 1):
        fail("perfbench exited %d without a result" % proc.returncode)
    return machine


def run_workload(opts):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    calibration = load_json(CALIBRATION)
    if opts.workload not in calibration["workloads"]:
        fail("unknown workload '%s'" % opts.workload)
    build()
    params = calibration["workloads"][opts.workload]
    machine = run_driver(driver_args(opts.workload, params, opts.seed,
                                     opts.seconds, opts.trace))
    wanted = bench["per_layer"] if opts.trace else bench["end_to_end"]
    measured = machine["metrics"]
    metrics = {}
    samples = {}
    missing = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not opts.trace:
            missing.append(m["name"])
            continue
        # A per-layer metric of a layer this workload never enters reads 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
        samples[m["name"]] = got["n"] if got else 0
        if got and got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
    if missing:
        fail("perfbench did not report " + ", ".join(missing))
    provenance = dict(source_revision())
    provenance.update({
        "nproc": machine["info"].get("nproc"),
        "build_type": machine["info"].get("build_type"),
        "compiler": machine["info"].get("compiler"),
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "reference_ceiling_sha": calibration.get("measured_at_sha"),
        "ladder": machine["info"].get("ladder"),
        "sim_digest": machine["info"].get("sim_digest"),
        "samples": samples,
        # Reported by the binary but gated by no bound (README.md: the tail
        # latencies; their run-to-run spread on a noisy host exceeds 25%).
        "ungated": {name: m["value"] for name, m in measured.items()
                    if name not in metrics and not opts.trace},
    })
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": bool(machine["correct"]),
                      "attempted": int(machine["attempted"]),
                      "failed": int(machine["failed"]),
                      "metrics": metrics}))


def calibrate(opts):
    """Measures each workload's ceiling on a fine ramp (x1.1 per step, three
    seeds) and rewrites the ladder rates in calibration.json.  Only this
    command derives rates; live nodes keep deploying the allocation for the
    recorded deploy_rps."""
    build()
    calibration = load_json(CALIBRATION)
    names = [opts.workload] if opts.workload else list(calibration["workloads"])
    for name in names:
        params = calibration["workloads"][name]
        ramp = [round(params["ramp_start_rps"] * 1.1 ** i) for i in range(params["ramp_steps"])]
        ramp_params = dict(params, ladder_rps=ramp, repeats=1)
        seconds = params["warmup_s"] + (params.get("settle_s", 0) +
                                        params["ramp_step_s"]) * len(ramp)
        ceilings = []
        for seed in (101, 102, 103):
            machine = run_driver(driver_args(name, ramp_params, seed, seconds, 0),
                                 timeout=600)
            ceilings.append(machine["metrics"]["goodput_rps"]["value"])
        # Noise only ever fails a ramp step early, never passes one late,
        # so the highest of the seeds' ramps is the ceiling.
        ceiling = max(ceilings)
        grain = params.get("rate_grain", 10)
        shares = params.get("ladder_shares", LADDER_SHARES)
        ladder = [round(ceiling * s / grain) * grain for s in shares]
        if params.get("pinned_heavy_rps"):
            ladder[1] = params["pinned_heavy_rps"]
        params.update({"ceiling_rps": ceiling, "ceiling_by_seed": ceilings,
                       "ladder_rps": ladder})
        print("%s: ceiling %g req/s (seeds %s) -> ladder %s" % (name, ceiling, ceilings, ladder),
              file=sys.stderr)
    calibration["measured_at_sha"] = source_revision()["git_sha"]
    calibration["measured_on"] = {
        "date": datetime.date.today().isoformat(), "nproc": os.cpu_count(),
        "build_type": "Release"}
    with open(CALIBRATION, "w") as f:
        json.dump(calibration, f, indent=2)
        f.write("\n")


def selftest():
    build()
    proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")], cwd=ROOT,
                          timeout=170, check=False)
    sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    try:
        if opts.selftest:
            selftest()
        elif opts.calibrate:
            calibrate(opts)
        elif opts.workload:
            run_workload(opts)
        else:
            fail("need --workload, --calibrate or --selftest")
    except subprocess.TimeoutExpired as e:
        fail("timed out: %s" % e)
    except (OSError, ValueError, KeyError) as e:
        fail(str(e))


if __name__ == "__main__":
    main()
