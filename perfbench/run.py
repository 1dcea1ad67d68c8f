#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 30 --trace 0

It builds the CLI and the worker (perfbench/bench.ml) with dune, times
the workload's set-up several times, runs the worker for --seconds,
prints every metric by name with its unit and sample count, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones, including self time per layer from the spans.

Everything it writes stays under .bench_build/ and .bench_out/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans as spans_mod  # noqa: E402

WORKLOADS = ["mc-deep", "tables", "fuzz", "serve"]
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "randsync_cli.exe")
PROFILE = "release"
SETUP_SAMPLES = 31
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", PROFILE, "./perfbench/bench.exe",
           "./bin/randsync_cli.exe"]
    # no shared dune cache: the build stays inside the checkout
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def env_stamp(seed):
    def cmd_out(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  timeout=30).stdout
        except (OSError, subprocess.TimeoutExpired):
            return ""

    config = dict(line.split(": ", 1)
                  for line in cmd_out(["ocamlopt", "-config"])
                  .splitlines() if ": " in line)
    commit = (cmd_out(["git", "rev-parse", "HEAD"]).strip() or None
              if os.path.exists(".git") else None)
    flambda = config.get("flambda", "unknown")
    return {
        "nproc": os.cpu_count(),
        "ocaml": config.get("version", "unknown"),
        "flambda": flambda,
        "dune_profile": PROFILE + ("" if flambda == "true"
                                   else " (-O3 is a no-op without flambda)"),
        "git_commit": commit,
        "seed": seed,
    }


def clean_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def read_until(proc, prefix, timeout):
    """Read proc's stdout lines until one starts with prefix."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith(prefix):
            return
    raise BenchError(f"no {prefix!r} line from {proc.args[0]}")


class Daemon:
    """A `randsync serve` process with its own socket and spool."""

    def __init__(self, tag):
        self.dir = os.path.join(OUT_DIR, "serve-" + tag)
        clean_dir(self.dir)
        self.socket = os.path.join(self.dir, "s.sock")
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", self.socket, "--spool",
             os.path.join(self.dir, "spool")],
            stdout=subprocess.PIPE, text=True)

    def wait_ready(self):
        read_until(self.proc, "listening", 30)

    def stop(self):
        """SIGTERM, wait; returns the daemon's peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, _, ru = os.wait4(self.proc.pid, 0)
            self.proc.returncode = 0
        except ChildProcessError:
            return 0.0
        finally:
            self.proc.stdout.close()
        return ru.ru_maxrss / 1024.0


def ready_argv(args, socket=None):
    argv = [BENCH, "ready", "--workload", args.workload, "--seed",
            str(args.seed), "--size", args.size]
    return argv + (["--socket", socket] if socket else [])


def time_setup(args):
    """Process (and, for serve, daemon) start to the first operation."""
    samples = []
    # the first set-up warms the page cache and is not counted
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        daemon = None
        try:
            if args.workload == "serve":
                daemon = Daemon("setup%d" % i)
                daemon.wait_ready()
            p = subprocess.Popen(ready_argv(args, daemon and daemon.socket),
                                 stdout=subprocess.PIPE, text=True)
            try:
                read_until(p, "ready", 60)
                if i > 0:
                    samples.append(time.monotonic() - t0)
            except BenchError:
                p.kill()
                raise
            finally:
                p.stdout.close()
                p.wait(timeout=60)
            if p.returncode != 0:
                raise BenchError("set-up probe failed")
        finally:
            if daemon:
                daemon.stop()
    return samples


def run_worker(args, out, socket=None):
    argv = [BENCH, "run", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace), "--out", out, "--cli", CLI, "--size", args.size]
    if socket:
        argv += ["--socket", socket]
    if args.wrong_expect:
        argv.append("--wrong-expect")
    p = subprocess.Popen(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while True:
        pid, status = os.waitpid(p.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            p.kill()
            os.waitpid(p.pid, 0)
            raise BenchError("worker timed out")
        time.sleep(0.05)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError("worker exited with %d" % p.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the smoke test's scaled-down inputs")
    ap.add_argument("--wrong-expect", action="store_true",
                    help="mc-deep only: check against a deliberately wrong "
                    "expected verdict (the smoke test's failure-counting "
                    "probe)")
    args = ap.parse_args()
    if args.wrong_expect and args.workload != "mc-deep":
        ap.error("--wrong-expect applies to mc-deep only")

    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    build()
    stamp = env_stamp(args.seed)
    setup = time_setup(args)

    out = os.path.join(OUT_DIR, "%s-%d-t%d" % (args.workload, args.seed,
                                               args.trace))
    clean_dir(out)
    if args.workload == "serve":
        daemon = Daemon("run")
        try:
            daemon.wait_ready()
            run_worker(args, out, daemon.socket)
        finally:
            rss = daemon.stop()
    else:
        run_worker(args, out)

    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)
    measured = {k: (v["value"], v["unit"], v["samples"])
                for k, v in result["metrics"].items()}
    measured["setup_s"] = (statistics.median(setup), "s", len(setup))
    if args.workload == "serve":
        measured["peak_rss_mb"] = (rss, "MB", 1)
    layer_table = None
    if args.trace == 1:
        span_list = spans_mod.load(os.path.join(out, "spans.jsonl"))
        traced_rounds = result["rounds"] // 2
        layer_table = spans_mod.self_time_by_layer(span_list)
        for layer, secs in layer_table.items():
            measured["self_s." + layer] = (secs / max(1, traced_rounds), "s",
                                           traced_rounds)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], (0.0, m["unit"], 0))[0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    stamp["workload"] = args.workload
    stamp["rounds"] = result["rounds"]
    log("env " + json.dumps(stamp, sort_keys=True))
    for name in sorted(measured):
        value, unit, n = measured[name]
        log("metric %-34s %14.6g %-6s n=%d" % (name, value, unit, n))
    for fail in result["failures"]:
        log("FAILED %s x%d: %s" % (fail["op"], fail["count"],
                                    fail["message"]))
    if layer_table is not None:
        log(spans_mod.render(args.workload, layer_table,
                             measured["obs.trace_overhead"][0]))
    summary = {
        "correct": bool(result["consistent"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump({"env": stamp, "summary": summary, "measured": measured,
                   "setup_samples": setup}, f, indent=1)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
