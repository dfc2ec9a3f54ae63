#!/usr/bin/env python3
"""End-to-end benchmark of rdfalign: the CLI and the rdfalignd daemon as
users run them, plus a traced in-process replay for per-layer numbers.

    python3 e2ebench/run.py --workload cli-cold --seed 1 --seconds 22 --trace 0

Run it from the root of a source checkout. The first run builds the
programs into .bench_build/; generated inputs are cached under
.bench_data/, keyed by input kind, size, input set and the build that
made them. The seed picks one of INPUT_SETS input sets, each with its
outputs pinned in e2ebench/reference/; `--record` re-pins them after an
intended output change. The last line of standard output is the result as
one JSON object; the lines before it are the human-readable report. See
e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DATA_DIR = os.path.join(ROOT, ".bench_data")
RDFALIGN = os.path.join(BUILD_DIR, "rdfalign", "rdfalign")
RDFALIGND = os.path.join(BUILD_DIR, "rdfalign", "rdfalignd")
E2ETOOL = os.path.join(BUILD_DIR, "e2etool")

# A run is measured in this many segments; each daemon workload segment
# runs on its own freshly set-up daemon. setup_s is the median of the
# set-ups, throughput and CPU per operation are medians over segments.
SEGMENTS = 3
CACHE_BYTES = 1 << 30      # rdfalignd's default --cache-mb=1024
KEEP_DATASETS = 8          # generated input sets kept on disk
INPUT_SETS = 16            # --seed N generates input set N % INPUT_SETS
ROUNDTRIP_SAMPLES = 40     # `cache stats` round trips for the floor
RSS_CYCLES = 2             # daemon peak RSS is read after this many cycles
CLI_CYCLES = 3             # fresh-process cycles behind exec_overhead_ms

# Input kind -> (full size, smoke size). Sizes: category scale, GtoPdb
# ligands, EFO initial classes.
SIZES = {"category": (5.0, 0.05), "gtopdb": (7000, 200), "efo": (20000, 300)}

# ---------------------------------------------------------------- workloads


def _daemon_warm_cycle(conn):
    return [
        ["align", "v1.snap", "v2.snap", "--method=trivial", "--json"],
        ["align", "v1.snap", "v2.snap", "--method=hybrid", "--json"],
        ["info", "v2.snap", "--json"],
        ["diff", "v1.snap", "v2.snap", "d%d.delta" % conn, "--json"],
        ["info", "v1.snap", "--json"],
    ]


WORKLOADS = {
    # One caller runs fresh rdfalign processes, as a curator does for each
    # release: build the new version, align it two ways, diff, patch.
    "cli-cold": {
        "data": "category",
        "kind": "cli",
        "setup": [["build", "../v1.nt", "v1.snap", "--json"]],
        "cycle": [
            ["build", "../v2.nt", "v2.snap", "--json"],
            ["align", "v1.snap", "v2.snap", "--method=trivial", "--mmap",
             "--json"],
            ["align", "v1.snap", "v2.snap", "--method=hybrid", "--mmap",
             "--json"],
            ["diff", "v1.snap", "v2.snap", "d12.delta", "--json"],
            ["patch", "v1.snap", "d12.delta", "v2p.snap", "--json"],
        ],
        # output file -> the input versions the writing op read
        "writes": {"v2.snap": ["v2"], "d12.delta": ["v1", "v2"],
                   "v2p.snap": ["v1"]},
    },
    # The same versions resident in one daemon; two connections loop over
    # cache-hit requests (info twice per cycle, so the median falls inside
    # one request kind rather than between two).
    "daemon-warm": {
        "data": "category",
        "kind": "daemon",
        "snapshots": ["v1", "v2"],
        "conns": 2,
        "cycle_of": _daemon_warm_cycle,
        "writes": {"d0.delta": ["v1", "v2"], "d1.delta": ["v1", "v2"]},
    },
    # A GtoPdb pair whose URIs all change: the method core does the work.
    # Two overlap aligns per hybrid one, for the same median reason.
    "method-heavy": {
        "data": "gtopdb",
        "kind": "daemon",
        "snapshots": ["v1", "v2"],
        "conns": 1,
        "cycle_of": lambda conn: [
            ["align", "v1.snap", "v2.snap", "--method=overlap", "--json"],
            ["align", "v1.snap", "v2.snap", "--method=hybrid", "--json"],
            ["align", "v1.snap", "v2.snap", "--method=overlap", "--json"],
        ],
        "writes": {},
    },
    # A live EFO target: update fragments pushed forward and back through
    # versions 1..3 against frozen version 0.
    "stream-live": {
        "data": "efo",
        "kind": "stream",
        "snapshots": ["v0", "v1", "v2", "v3"],
        "conns": 1,
        "open": ["stream", "open", "v0.snap", "v1.snap", "--method=deblank",
                 "--json"],
        # (fragment, the target version the live graph then holds)
        "pushes": [("../fwd1.rdfu", "v2.snap"), ("../fwd2.rdfu", "v3.snap"),
                   ("../bwd2.rdfu", "v2.snap"), ("../bwd1.rdfu", "v1.snap")],
        "writes": {},
    },
}

END_TO_END = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_ops_s": "ops/s", "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB", "setup_s": "s",
}

PER_LAYER = [
    ("parser.parse_ms", "ms"), ("parser.triples_per_s", "1/s"),
    ("store.snapshot_load_ms", "ms"), ("store.snapshot_write_ms", "ms"),
    ("store.delta_write_ms", "ms"), ("store.bytes_written", "B"),
    ("store.delta_apply_ms", "ms"), ("store.fragment_decode_ms", "ms"),
    ("service.acquire_hit_ms", "ms"), ("service.cache_hit_ratio", "fraction"),
    ("service.rebind_ms", "ms"), ("service.render_ms", "ms"),
    ("service.roundtrip_floor_ms", "ms"), ("service.unattributed_ms", "ms"),
    ("rdf.merge_ms", "ms"), ("rdf.merged_triples", "count"),
    ("core.stats_ms", "ms"), ("core.refine_ms", "ms"),
    ("core.enrich_ms", "ms"), ("core.overlap_index_ms", "ms"),
    ("core.match_ms", "ms"), ("core.nodemap_ms", "ms"),
    ("core.refine_rounds", "count"), ("core.resignings", "count"),
    ("core.classes", "count"), ("core.final_classes", "count"),
    ("core.method_share", "fraction"), ("process.exec_overhead_ms", "ms"),
    ("stream.push_ms", "ms"), ("stream.overlay_ms", "ms"),
    ("stream.refine_ms", "ms"), ("stream.delta_ms", "ms"),
    ("stream.resignings_per_update", "ratio"),
    ("stream.updates_per_s", "updates/s"),
    ("op.wall_ms", "ms"), ("trace.overhead_pct", "%"),
]

# Span name -> per-layer metric (mean milliseconds per operation).
SPAN_METRICS = {
    "parser.parse": "parser.parse_ms",
    "store.snapshot_load": "store.snapshot_load_ms",
    "store.snapshot_write": "store.snapshot_write_ms",
    "store.delta_write": "store.delta_write_ms",
    "store.delta_apply": "store.delta_apply_ms",
    "store.fragment_decode": "store.fragment_decode_ms",
    "service.acquire_hit": "service.acquire_hit_ms",
    "service.rebind": "service.rebind_ms",
    "service.render": "service.render_ms",
    "rdf.merge": "rdf.merge_ms",
    "core.stats": "core.stats_ms",
    "core.refine": "core.refine_ms",
    "core.enrich": "core.enrich_ms",
    "core.overlap_index": "core.overlap_index_ms",
    "core.match": "core.match_ms",
    "core.nodemap": "core.nodemap_ms",
    "stream.push": "stream.push_ms",
    "stream.overlay": "stream.overlay_ms",
    "stream.refine": "stream.refine_ms",
    "stream.delta": "stream.delta_ms",
}
METHOD_CORE = ("core.refine", "core.enrich", "core.overlap_index",
               "core.match")

# Lines of a rendered body that carry timings (bench/service_bench.cc's
# ScrubTimings idiom); everything else must repeat exactly.
VOLATILE_MARKERS = (b'_ms"', b'seconds"', b"loaded in ", b"phases (ms)",
                    b"parse ", b"align time ")


class BenchError(Exception):
    """A failed operation or output check: the run records nothing."""


def log(msg):
    print(msg, flush=True)


# ------------------------------------------------------------------ helpers


def scrub(body):
    """Drops the lines of `body` (bytes) holding a volatile marker."""
    cuts = []
    for marker in VOLATILE_MARKERS:
        pos = body.find(marker)
        while pos >= 0:
            start = body.rfind(b"\n", 0, pos) + 1
            end = body.find(b"\n", pos)
            end = len(body) if end < 0 else end + 1
            cuts.append((start, end))
            pos = body.find(marker, end)
    if not cuts:
        return body
    cuts.sort()
    kept, last = [], 0
    for start, end in cuts:
        if start >= last:
            kept.append(body[last:start])
        last = max(last, end)
    kept.append(body[last:])
    return b"".join(kept)


def digest(body):
    if isinstance(body, str):
        body = body.encode()
    return hashlib.sha1(scrub(body)).hexdigest()


def tail_percentile(n):
    """Highest whole nearest-rank percentile with >= 10 samples above it."""
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100)
        if n - rank >= 10:
            return p
    return None


def nearest_rank(sorted_values, p):
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def op_key(tokens):
    return " ".join(tokens)


def run_quiet(cmd, cwd, what):
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (what, p.returncode, p.stderr.strip()[-2000:]))
    return p.stdout


# -------------------------------------------------------------------- build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: run from the root of an rdfalign source "
                         "checkout (no CMakeLists.txt and src/ here)\n")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                out.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % log_path)
                sys.exit(1)


def build_info():
    info = {"build_type": None, "compiler": None}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    version = subprocess.run([compiler, "--version"],
                                             stdout=subprocess.PIPE,
                                             text=True).stdout
                    info["compiler"] = version.splitlines()[0]
    except OSError:
        pass
    return info


# ------------------------------------------------------------------- inputs


def build_id():
    """Digest of the programs that write the inputs and snapshots, so a
    rebuilt program never reads files an older build wrote."""
    h = hashlib.sha1()
    for program in (E2ETOOL, RDFALIGN):
        with open(program, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:12]


def dataset(kind, size, seed):
    """The generated input directory for (kind, size, seed) and the
    current build, made once."""
    os.makedirs(DATA_DIR, exist_ok=True)
    name = "%s-%g-s%d-%s" % (kind, size, seed, build_id())
    path = os.path.join(DATA_DIR, name)
    if not os.path.isfile(os.path.join(path, "inputs.json")):
        tmp = path + ".tmp%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        run_quiet([E2ETOOL, "gen", kind, "%g" % size, str(seed), tmp], ROOT,
                  "input generation")
        shutil.rmtree(path, ignore_errors=True)
        os.rename(tmp, path)
        evict_datasets(keep=path)
    os.utime(path)
    with open(os.path.join(path, "inputs.json")) as f:
        files = json.load(f)["files"]
    return path, {os.path.splitext(f["file"])[0]: f for f in files}


def evict_datasets(keep):
    entries = [os.path.join(DATA_DIR, e) for e in os.listdir(DATA_DIR)]
    entries = [e for e in entries if os.path.isdir(e) and e != keep]
    entries.sort(key=os.path.getmtime)
    for stale in entries[:max(0, len(entries) - (KEEP_DATASETS - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def workdir(data_path, name, spec):
    """The workload's directory beside its inputs, with snapshots built."""
    wd = os.path.join(data_path, name)
    os.makedirs(wd, exist_ok=True)
    for v in spec.get("snapshots", []):
        if not os.path.isfile(os.path.join(wd, v + ".snap")):
            run_quiet([RDFALIGN, "build", "../%s.nt" % v, v + ".snap"], wd,
                      "snapshot build")
    return wd


def cycles_of(spec):
    """Per-connection op lists; stream pushes are ("push", fragment)."""
    if spec["kind"] == "cli":
        return [spec["cycle"]]
    if spec["kind"] == "stream":
        return [[["push", frag] for frag, _ in spec["pushes"]]]
    return [spec["cycle_of"](c) for c in range(spec["conns"])]


def write_plan(wd, spec):
    lines = []
    if spec["kind"] == "cli":
        lines.append(["pool", "0"])
        lines += [["setup"] + t for t in spec["setup"]]
    else:
        lines.append(["pool", str(CACHE_BYTES)])
        if spec["kind"] == "stream":
            lines.append(["setup"] + spec["open"])
        else:
            lines += [["setup", "info", v + ".snap", "--json"]
                      for v in spec["snapshots"]]
    for cycle in cycles_of(spec):
        lines += [["op"] + t for t in cycle]
    if spec["kind"] == "stream":
        lines.append(["final", "stream", "check", spec["pushes"][-1][1],
                      "--json"])
    path = os.path.join(wd, "plan.tsv")
    with open(path, "w") as f:
        f.write("".join("\t".join(l) + "\n" for l in lines))
    return path


def plan_keys(spec):
    keys = [op_key(t) for cycle in cycles_of(spec) for t in cycle]
    if spec["kind"] == "stream":
        keys.append("final")
    return keys


def reference_key(size, seed):
    return "%g/s%d" % (size, seed)


def replay_reference(wd, spec):
    """Scrubbed digests of every op's body, from one in-process replay."""
    plan = write_plan(wd, spec)
    out = os.path.join(wd, "reference.raw.json")
    run_quiet([E2ETOOL, "replay", plan, "reference", "0", out], wd,
              "reference replay")
    with open(out) as f:
        bodies = json.load(f)["bodies"]
    os.remove(out)
    return dict(zip(plan_keys(spec), (digest(b) for b in bodies)))


def pinned_references(workload):
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def reference(workload, size, seed):
    """The committed digests every output of this input set must match."""
    ref = pinned_references(workload).get(reference_key(size, seed))
    if ref is None:
        raise BenchError("no committed reference for %s at size %g, input "
                         "set %d (see --record in e2ebench/README.md)" %
                         (workload, size, seed))
    return ref


def record_reference(workload, wd, spec, size, seed):
    """Pins this input set's outputs, as the current build renders them."""
    refs = pinned_references(workload)
    refs[reference_key(size, seed)] = replay_reference(wd, spec)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    with open(path + ".tmp", "w") as f:
        json.dump(dict(sorted(refs.items())), f, indent=1, sort_keys=True)
        f.write("\n")
    os.rename(path + ".tmp", path)


# ---------------------------------------------------------------- processes


def run_cli(tokens, wd):
    """One fresh rdfalign process: (wall_s, cpu_s, maxrss_kib, rc, out)."""
    err_path = os.path.join(wd, "cli.stderr")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        p = subprocess.Popen([RDFALIGN] + tokens, cwd=wd,
                             stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if p.returncode != 0:
        with open(err_path) as f:
            sys.stderr.write(f.read())
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            p.returncode, out)


class Daemon:
    """A child rdfalignd on an ephemeral port, working in `wd`."""

    def __init__(self, wd):
        self.err = open(os.path.join(wd, "rdfalignd.stderr"), "w")
        self.proc = subprocess.Popen([RDFALIGND, "--port=0"], cwd=wd,
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     text=True)
        line = self.proc.stdout.readline()
        m = re.search(r"listening on [^:]+:(\d+)", line)
        if not m:
            self.stop()
            raise BenchError("rdfalignd did not start: %r" % line)
        self.port = int(m.group(1))

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


class Bridge:
    """One wire-protocol connection (service::Client inside e2etool)."""

    def __init__(self, port, wd):
        self.proc = subprocess.Popen([E2ETOOL, "bridge", str(port)], cwd=wd,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise BenchError("cannot connect to rdfalignd on port %d" % port)

    def call(self, tokens, payload=None):
        """(ok, latency_s, body, error); ok means exit 0 and a success
        envelope."""
        line = "\t".join((["@push", payload] if payload else []) + tokens)
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        head = self.proc.stdout.readline().split()
        if len(head) != 6 or head[0] != b"R":
            raise BenchError("bridge lost its connection")
        body = self.proc.stdout.read(int(head[4]))
        error = self.proc.stdout.read(int(head[5])).decode()
        ok = head[1] == b"0" and head[2] == b"1"
        return ok, float(head[3]) / 1e6, body, error

    def close(self):
        # Closing both pipes ends the bridge even in the middle of a reply.
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


# ------------------------------------------------------------ measurements


class Run:
    """Operation samples of one measured phase."""

    def __init__(self):
        self.samples = []   # (key, latency_s)
        self.segments = []  # (operations, elapsed s, CPU s)
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def record(self, key, latency, good):
        with self.lock:
            self.attempted += 1
            if good:
                self.samples.append((key, latency))
            else:
                self.failed += 1


def check_body(ref, key, ok, body, error):
    if not ok:
        sys.stderr.write("run.py: %s failed: %s\n" % (key, error.strip()))
        return False
    if digest(body) != ref.get(key):
        sys.stderr.write("run.py: %s output differs from the reference\n"
                         % key)
        return False
    return True


def setup_cli(spec, wd, ref):
    times = []
    for _ in range(SEGMENTS):
        for tokens in spec["setup"]:
            wall, _, _, rc, _ = run_cli(tokens, wd)
            if rc != 0:
                raise BenchError("set-up %s exited %d" % (tokens, rc))
        times.append(wall)
    return statistics.median(times)


def measure_cli(spec, wd, ref, seconds, run):
    """Whole cycles of fresh processes until `seconds` have passed, in
    SEGMENTS segments. Returns the peak RSS of the children in MiB."""
    peak_kib = 0
    for _ in range(SEGMENTS):
        cpu = 0.0
        ops = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / SEGMENTS:
            for tokens in spec["cycle"]:
                key = op_key(tokens)
                wall, op_cpu, rss, rc, out = run_cli(tokens, wd)
                run.record(key, wall, check_body(ref, key, rc == 0, out,
                                                 "exit %d" % rc))
                cpu += op_cpu
                ops += 1
                peak_kib = max(peak_kib, rss)
        run.segments.append((ops, time.perf_counter() - start, cpu))
    return peak_kib / 1024.0


def patched_fingerprints_match(wd):
    prints = []
    for snap in ("v2p.snap", "v2.snap"):
        _, _, _, rc, out = run_cli(["info", snap, "--json"], wd)
        m = re.search(rb'"fingerprint": "([0-9a-f]+)"', out)
        if rc != 0 or not m:
            return False
        prints.append(m.group(1))
    return prints[0] == prints[1]


def start_daemon(spec, wd):
    """Daemon start plus cache fill (or stream open): (daemon, bridges, s)."""
    start = time.perf_counter()
    daemon = Daemon(wd)
    bridges = []
    try:
        bridges = [Bridge(daemon.port, wd) for _ in range(spec["conns"])]
        if spec["kind"] == "stream":
            ok, _, _, error = bridges[0].call(spec["open"])
            if not ok:
                raise BenchError("stream open failed: " + error)
        else:
            for v in spec["snapshots"]:
                ok, _, _, error = bridges[0].call(["info", v + ".snap",
                                                   "--json"])
                if not ok:
                    raise BenchError("cache fill failed: " + error)
    except BaseException:
        stop_daemon(daemon, bridges)
        raise
    return daemon, bridges, time.perf_counter() - start


def stop_daemon(daemon, bridges):
    for b in bridges:
        b.close()
    daemon.stop()


def measure_daemon(spec, daemon, bridges, ref, seconds, run):
    """Closed loop: each connection runs whole cycles until time is up;
    connection c starts its cycle at op c. Returns the elapsed time and
    the daemon's peak resident set after connection 0's RSS_CYCLES-th
    cycle: a stream session keeps growing with every push, and a fixed
    point keeps a faster build from reading as a bigger one."""
    cycles = cycles_of(spec)
    start = time.perf_counter()
    errors = []
    peak = []

    def client(conn):
        ops = cycles[conn]
        ops = ops[conn % len(ops):] + ops[:conn % len(ops)]
        try:
            done = 0
            while time.perf_counter() - start < seconds:
                if conn == 0 and done == RSS_CYCLES:
                    peak.append(daemon.hwm_mib())
                done += 1
                for tokens in ops:
                    payload = None
                    if tokens[0] == "push":
                        payload, tokens = tokens[1], ["stream", "push",
                                                      "--json"]
                        key = op_key(["push", payload])
                    else:
                        key = op_key(tokens)
                    ok, latency, body, error = bridges[conn].call(tokens,
                                                                  payload)
                    run.record(key, latency, check_body(ref, key, ok, body,
                                                        error))
        except BenchError as e:
            errors.append(str(e))

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(len(bridges))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise BenchError(errors[0])
    return elapsed, peak[0] if peak else daemon.hwm_mib()


def measure_daemons(spec, wd, ref, seconds, run, extra):
    """SEGMENTS daemons, each started, filled and then measured for an
    equal share of `seconds`, so one run spans several daemon processes.
    Returns (median set-up s, median peak RSS MiB)."""
    setups, peaks, ends = [], [], []
    for i in range(SEGMENTS):
        daemon, bridges, setup = start_daemon(spec, wd)
        setups.append(setup)
        try:
            if i == 0:
                extra["cache"] = cache_residency(bridges[0])
            cpu0 = daemon.cpu_s()
            ops0 = len(run.samples)
            segment, peak = measure_daemon(spec, daemon, bridges, ref,
                                           seconds / SEGMENTS, run)
            run.segments.append((len(run.samples) - ops0, segment,
                                 daemon.cpu_s() - cpu0))
            peaks.append(peak)
            ends.append(daemon.hwm_mib())
            if spec["kind"] == "stream":
                # Whole cycles end where they began: at the open target.
                ok, _, body, error = bridges[0].call(
                    ["stream", "check", spec["pushes"][-1][1], "--json"])
                if not ok or b'"equivalent": true' not in body:
                    sys.stderr.write("run.py: stream check failed: %s%s\n"
                                     % (error, body.decode()))
                    run.failed += 1
                elif not check_body(ref, "final", ok, body, error):
                    run.failed += 1
        finally:
            stop_daemon(daemon, bridges)
    extra["peak_rss_end_mb"] = max(ends)
    return statistics.median(setups), statistics.median(peaks)


def cache_residency(bridge):
    ok, _, body, _ = bridge.call(["cache", "stats", "--json"])
    if not ok:
        return None
    stats = json.loads(body)
    return {"resident_bytes": stats["resident_bytes"],
            "capacity_bytes": stats["capacity_bytes"],
            "entries": stats["entries"]}


def environment(seed, inputs):
    spin = json.loads(run_quiet([E2ETOOL, "spin"], ROOT, "calibration spin"))
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "spin_ms": {n: spin["t%d_ms" % n] for n in (1, 2, 4)},
        "effective_parallelism": {
            n: round(n * spin["t1_ms"] / spin["t%d_ms" % n], 3)
            for n in (2, 4)},
        "seed": seed,
        "inputs": {k: {"nodes": v["nodes"], "triples": v["triples"],
                       "updates": v["updates"]} for k, v in inputs.items()},
    }
    env.update(build_info())
    return env


def summarize(samples):
    lat = sorted(l * 1e3 for _, l in samples)
    p = tail_percentile(len(lat))
    return {
        "p50": nearest_rank(lat, 50),
        "tail": nearest_rank(lat, p) if p else lat[-1],
        "tail_percentile": p,
        "samples": len(lat),
    }


def measure_e2e(spec, wd, ref, inputs, seconds):
    run = Run()
    extra = {}
    if spec["kind"] == "cli":
        setup_s = setup_cli(spec, wd, ref)
        peak = measure_cli(spec, wd, ref, seconds, run)
        if not patched_fingerprints_match(wd):
            sys.stderr.write("run.py: patched snapshot fingerprint differs "
                             "from the next version's\n")
            run.failed += 1
    else:
        setup_s, peak = measure_daemons(spec, wd, ref, seconds, run, extra)
    if run.failed or not run.samples:
        raise BenchError("%d of %d operations failed their check" %
                         (run.failed, run.attempted))
    s = summarize(run.samples)
    segments = [seg for seg in run.segments if seg[0] > 0]
    metrics = {
        "latency_p50_ms": s["p50"],
        "latency_tail_ms": s["tail"],
        "throughput_ops_s": statistics.median(n / t for n, t, _ in segments),
        "cpu_ms_per_op": statistics.median(c * 1e3 / n
                                           for n, _, c in segments),
        "peak_rss_mb": peak,
        "setup_s": setup_s,
    }
    # Secondary figures, reported beside the metrics.
    by_op = {}
    for key, latency in run.samples:
        by_op.setdefault(key, []).append(latency * 1e3)
    extra["op_p50_ms"] = {k: round(statistics.median(v), 3)
                          for k, v in by_op.items()}
    extra.update({
        "tail_percentile": s["tail_percentile"], "samples": s["samples"],
        "error_rate": run.failed / run.attempted,
        "measured_s": sum(t for _, t, _ in run.segments),
        "segments": [{"ops": n, "s": round(t, 3), "cpu_s": round(c, 3)}
                     for n, t, c in run.segments],
    })
    if spec["writes"]:
        # Every cycle rewrites the same outputs, so one cycle's bytes over
        # the triples its writing operations read is exact.
        extra["bytes_written_per_triple"] = (
            sum(os.path.getsize(os.path.join(wd, f)) for f in spec["writes"])
            / sum(inputs[v]["triples"] for vs in spec["writes"].values()
                  for v in vs))
    if spec["kind"] == "stream":
        updates = {f: inputs[os.path.basename(f)[:-len(".rdfu")]]["updates"]
                   for f, _ in spec["pushes"]}
        total = sum(updates[k.split()[1]] for k, _ in run.samples)
        extra["updates_per_s"] = total / sum(l for _, l in run.samples)
    return run, metrics, extra


# ------------------------------------------------------------------- traced


def roundtrip_floor(spec, wd):
    daemon = Daemon(wd)
    bridge = None
    try:
        bridge = Bridge(daemon.port, wd)
        lat = []
        for _ in range(ROUNDTRIP_SAMPLES):
            ok, latency, _, error = bridge.call(["cache", "stats", "--json"])
            if not ok:
                raise BenchError("cache stats failed: " + error)
            lat.append(latency * 1e3)
        return statistics.median(lat)
    finally:
        stop_daemon(daemon, [bridge] if bridge else [])


def cli_walls(spec, wd, ref):
    """CLI_CYCLES untraced cycles of fresh processes: op key -> median
    wall ms."""
    for tokens in spec["setup"]:
        if run_cli(tokens, wd)[3] != 0:
            raise BenchError("set-up %s failed" % tokens)
    walls = {}
    for _ in range(CLI_CYCLES):
        for tokens in spec["cycle"]:
            key = op_key(tokens)
            wall, _, _, rc, out = run_cli(tokens, wd)
            if not check_body(ref, key, rc == 0, out, "exit %d" % rc):
                raise BenchError("%s failed its check" % key)
            walls.setdefault(key, []).append(wall * 1e3)
    return {k: statistics.median(v) for k, v in walls.items()}


def measure_traced(spec, wd, ref, seconds):
    keys = plan_keys(spec)
    n_ops = len(keys) - (1 if spec["kind"] == "stream" else 0)
    floor = 0.0
    walls = {}
    if spec["kind"] == "cli":
        walls = cli_walls(spec, wd, ref)
    else:
        floor = roundtrip_floor(spec, wd)
    plan = write_plan(wd, spec)
    trace_path = os.path.join(wd, "trace.json")
    run_quiet([E2ETOOL, "replay", plan, "trace", str(seconds), trace_path],
              wd, "traced replay")
    with open(trace_path) as f:
        trace = json.load(f)

    failed = 0
    for key, body in zip(keys, trace["bodies"]):
        if digest(body) != ref.get(key):
            sys.stderr.write("run.py: replayed %s differs from the "
                             "reference\n" % key)
            failed += 1
    if failed:
        raise BenchError("the traced replay does not reproduce the "
                         "reference outputs")

    ops = trace["ops"]
    traced = {o["id"]: o for o in ops if o["traced"]}
    n = len(traced)
    spans_by_op = {}
    for s in trace["spans"]:
        spans_by_op.setdefault(s["op"], []).append(s)
    layer_us = {}
    unattributed = 0.0
    for op_id, op in traced.items():
        top = 0.0
        for s in spans_by_op.get(op_id, []):
            layer_us[s["name"]] = layer_us.get(s["name"], 0.0) + s["dur_us"]
            if s["parent"] < 0:
                top += s["dur_us"]
        unattributed += op["wall_us"] - top
    counters = {}
    for c in trace["counters"]:
        counters.setdefault(c["name"], []).append(c["value"])
    wall_us = sum(o["wall_us"] for o in traced.values())
    plain_us = sum(o["wall_us"] for o in ops if not o["traced"])

    m = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        m[metric] = layer_us.get(span, 0.0) / 1e3 / n
    if layer_us.get("parser.parse"):
        m["parser.triples_per_s"] = (sum(counters["parser.triples"]) /
                                     (layer_us["parser.parse"] / 1e6))
    m["store.bytes_written"] = sum(counters.get("store.bytes_written",
                                                [])) / n
    hits = counters.get("service.cache_hit", [])
    m["service.cache_hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    m["service.roundtrip_floor_ms"] = floor
    m["service.unattributed_ms"] = unattributed / 1e3 / n
    for c in ("rdf.merged_triples", "core.refine_rounds", "core.resignings",
              "core.classes", "core.final_classes"):
        m[c] = sum(counters.get(c, [])) / n
    m["core.method_share"] = sum(layer_us.get(s, 0.0)
                                 for s in METHOD_CORE) / wall_us
    if walls:
        plain = {}
        for o in ops:
            if not o["traced"]:
                plain.setdefault(keys[o["index"]], []).append(o["wall_us"])
        m["process.exec_overhead_ms"] = statistics.median(
            walls[k] - statistics.median(v) / 1e3 for k, v in plain.items())
    updates = sum(counters.get("stream.updates", []))
    if updates:
        m["stream.resignings_per_update"] = (
            sum(counters["stream.resignings"]) / updates)
        m["stream.updates_per_s"] = updates / (wall_us / 1e6)
    m["op.wall_ms"] = wall_us / 1e3 / n
    m["trace.overhead_pct"] = (wall_us / plain_us - 1.0) * 100.0 \
        if plain_us else 0.0

    report = {
        "traced_ops": n, "plan_ops": n_ops,
        "layers_ms_per_op": {k: round(v / 1e3 / n, 3)
                             for k, v in sorted(layer_us.items())},
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return len(ops), m, report


# --------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="pin this input set's outputs as the current "
                        "build renders them, and exit")
    args = parser.parse_args()

    build()
    spec = WORKLOADS[args.workload]
    size = SIZES[spec["data"]][1 if args.smoke else 0]
    input_set = args.seed % INPUT_SETS
    try:
        data_path, inputs = dataset(spec["data"], size, input_set)
        wd = workdir(data_path, args.workload, spec)
        if args.record:
            record_reference(args.workload, wd, spec, size, input_set)
            log("recorded %s %s" % (args.workload,
                                    reference_key(size, input_set)))
            return 0
        ref = reference(args.workload, size, input_set)
        env = environment(args.seed, inputs)
        env.update({"workload": args.workload, "size": size,
                    "input_set": input_set,
                    "seconds": args.seconds, "trace": args.trace})
        if args.trace:
            attempted, values, extra = measure_traced(spec, wd, ref,
                                                      args.seconds)
            units = dict(PER_LAYER)
            failed = 0
        else:
            run, values, extra = measure_e2e(spec, wd, ref,
                                             inputs, args.seconds)
            units = END_TO_END
            attempted, failed = run.attempted, run.failed
    except BenchError as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 1

    log("environment " + json.dumps(env, sort_keys=True))
    log("report " + json.dumps(extra, sort_keys=True))
    for name in units:
        log("  %-30s %14.4f %s" % (name, values[name], units[name]))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
