#!/usr/bin/env python3
"""Benchmark of the qhopf package, run from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Workloads (one client, closed loop, one operation at a time):

* ``cli-cold``: one fresh ``qhopf`` process per operation, cycling through
  the subcommands;
* ``hopf-symbolic``: ``qhopf.cli.main(["verify-hopf", ...])`` in-process over
  slots that cover every branch;
* ``rmatrix-sectors``: ``main(["verify-rmatrix", ...])`` in-process at
  M in {8, 10, 12} with ``QHOPF_MAX_SECTOR=12``.

A run makes whole rounds over the workload's input slots until ``--seconds``
have passed; repetition j of a slot gets a fresh parameter pack (see
``packs.py``).  Each operation's wall time is host-corrected
(``hostprobe.py``); ``pass_s`` is the sum over slots of each slot's median
corrected time.  With ``--trace 1`` the public entry points of every module are
wrapped (``tracer.py``) and the per-layer metrics are printed instead.
Every operation's output is judged against computations made apart from the
program (``oracles.py``); the known-fault operations are counted in
``failed``.  The last line of stdout is the JSON result; the raw record of
the run goes to ``perfbench/results/``.  ``--smoke`` runs one round at tiny
sizes.
"""

import os

# One BLAS thread per process: with default OpenBLAS threads the workers
# spin beside the interpreter and process CPU time reaches 1.5-1.9x wall time
# on the M=8..12 sector checks.  Set before numpy is imported, inherited by
# every child process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("cli-cold", "hopf-symbolic", "rmatrix-sectors")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(SRC))
import tracer as tracing  # noqa: E402
from hostprobe import REF_S, HostProbe  # noqa: E402


class BenchError(Exception):
    pass


# ------------------------------------------------------------------- helpers
def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def import_cli():
    """Import qhopf.cli from this checkout; returns (module, seconds)."""
    t0 = time.perf_counter()
    import qhopf.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"qhopf imported from {cli.__file__}, not from {SRC}")
    return cli, import_s


def load_workloads():
    """The workload definitions.  They pull in numpy through the oracles, so
    the in-process workloads load them only after ``import_cli``: numpy is
    then part of qhopf's own import time."""
    import workloads
    return workloads


def child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("QHOPF_MAX_SECTOR", None)
    env.update(extra)
    return env


class Spread:
    """Work done ``count`` times in a run, spread evenly over its
    ``seconds``: the count depends on the run length only, not on how fast
    the program is."""

    def __init__(self, count, seconds, fn):
        self.count, self.every, self.fn = count, seconds / count, fn
        self.done = 0

    def catch_up(self, elapsed):
        """Do the work due at ``elapsed`` seconds (all that is left when
        None); returns the seconds it took."""
        t0 = time.perf_counter()
        while self.done < self.count and (elapsed is None or elapsed >= self.done * self.every):
            self.fn(self.done)
            self.done += 1
        return time.perf_counter() - t0


class Rounds:
    """Whole rounds over the slots, timed per operation."""

    def __init__(self, slots, probe, per_op_level=True):
        self.slots = slots
        self.probe = probe
        self.per_op_level = per_op_level
        self.walls = {s.name: [] for s in slots}
        self.levels = {s.name: [] for s in slots}
        self.aggs = {s.name: [] for s in slots}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, seed, seconds, execute, one_round=False, extra=()):
        """Rounds until ``seconds`` of operations have passed.  The ``extra``
        work (``Spread``) is done between operations and kept off that
        clock."""
        start = time.perf_counter()
        off = 0.0
        j = 0
        while True:
            for s in self.slots:
                off += sum(x.catch_up(time.perf_counter() - start - off) for x in extra)
                pack = s.pack(seed, j)
                if self.per_op_level:
                    (res, agg), level = self.probe.around(lambda: execute(s, pack, j))
                    self.levels[s.name].append(level)
                else:
                    res, agg = execute(s, pack, j)
                self.walls[s.name].append(res.wall)
                if agg is not None:
                    self.aggs[s.name].append(agg)
                self.attempted += 1
                try:
                    verdict = s.check(pack, res, j)
                except Exception as exc:  # a malformed output is a wrong output
                    verdict = f"check raised {exc!r}"
                if verdict == "fault":
                    self.failed += 1
                elif verdict != "ok":
                    self.problems.append(f"{s.name} j={j}: {verdict}")
            j += 1
            if one_round or time.perf_counter() - start - off >= seconds:
                for x in extra:
                    x.catch_up(None)
                return

    def scale(self, name):
        """Host correction of each of one slot's operations."""
        if not self.per_op_level:
            return [REF_S / self.probe.run_level()] * len(self.walls[name])
        return [REF_S / lv for lv in self.levels[name]]

    def corrected(self, name):
        """Host-corrected times of one slot's operations."""
        return [w * f for w, f in zip(self.walls[name], self.scale(name))]

    def pass_s(self):
        return sum(statistics.median(self.corrected(name)) for name in self.walls)

    def pass_raw_s(self):
        return sum(statistics.median(w) for w in self.walls.values())

    def per_op(self):
        return {name: {"n": len(w), "median_s": statistics.median(w), "p90_s": p90(w),
                       "best_s": min(w),
                       "median_corrected_s": statistics.median(self.corrected(name)),
                       "walls_s": w, "levels_s": self.levels[name]}
                for name, w in self.walls.items()}

    def layer_metrics(self):
        """Per pass: times are summed over slots of each slot's median
        host-corrected repetition; counts are those of repetition 0 and
        must repeat."""
        total = {}
        repeat = True
        for name, aggs in self.aggs.items():
            per_rep = [tracing.layer_metrics(a) for a in aggs]
            scale = self.scale(name)
            for key in per_rep[0]:
                if key in tracing.COUNT_METRICS:
                    value = per_rep[0][key]
                    # dense inverses follow cond(R_M) against the 1e12 cap,
                    # which the shifts move near M=9 (the invertibility fault)
                    if key != "fock.dense_inverse_calls":
                        repeat &= all(r[key] == value for r in per_rep)
                else:
                    value = statistics.median(r[key] * f for r, f in zip(per_rep, scale))
                total[key] = total.get(key, 0) + value
        calls = total["hopf.product_calls"]
        total["hopf.product_reuse"] = total["hopf.product_distinct"] / calls if calls else 0.0
        return total, repeat

    def first_spans(self):
        return {name: aggs[0].get("spans", []) for name, aggs in self.aggs.items() if aggs}


# --------------------------------------------------------- in-process runs
def build_slots(workload, smoke):
    W = load_workloads()
    if workload == "hopf-symbolic":
        return W.hopf_symbolic(smoke)
    os.environ["QHOPF_MAX_SECTOR"] = str(W.SECTOR_CAP)
    return W.rmatrix_sectors(smoke)


def call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # reported as the operation's outcome
            rc = repr(exc)
        wall = time.perf_counter() - t0
    return load_workloads().Result(rc, out.getvalue(), err.getvalue(), wall)


def set_up(workload, seed, smoke, warm_j, tr=None):
    """What an in-process run does before its first timed operation: import
    ``qhopf.cli``, build the inputs and run one warm-up operation (repetition
    ``warm_j`` of the first slot).  Returns (cli, import seconds, slots,
    controls)."""
    cli, import_s = import_cli()
    slots, controls = build_slots(workload, smoke)
    for s in slots:  # input generation is part of set-up
        s.argv(s.pack(seed, 0), 0)
    if tr is not None:
        tracing.install(tr)
    warm = slots[0]
    pack = warm.pack(seed, warm_j)
    verdict = warm.check(pack, call_main(cli, warm.argv(pack, warm_j)), warm_j)
    if verdict not in ("ok", "fault"):
        raise BenchError(f"warm-up operation failed: {verdict}")
    return cli, import_s, slots, controls


def setup_probe(workload, seed, index, smoke):
    """Child side of one set-up measurement: prints "ready" once set up."""
    set_up(workload, seed, smoke, -2 - index)
    print("ready", flush=True)


def probe_setup(workload, seed, index, smoke):
    """Seconds from a fresh process's start to its first timed operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--setup-probe", str(index)] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe {index} of {workload}: {line or proc.returncode}")
    return elapsed


def run_inprocess(workload, seed, seconds, trace, smoke):
    probe = HostProbe()
    setups = []
    tr = tracing.Tracer() if trace else None
    cli, import_s, slots, controls = set_up(workload, seed, smoke, -1, tr=tr)

    def execute(slot, pack, j):
        argv = slot.argv(pack, j)
        if tr is not None:
            tr.begin_op()
        res = call_main(cli, argv)
        agg = tr.end_op(keep_spans=j == 0) if tr is not None else None
        return res, agg

    extra = [] if trace else [
        Spread(1 if smoke else SETUP_REPEATS, seconds,
               lambda i: setups.append(probe_setup(workload, seed, i, smoke)))]
    rounds = Rounds(slots, probe)
    rounds.run(seed, seconds, execute, one_round=smoke, extra=extra)
    bad = controls(seed)
    if bad:
        rounds.problems.append(f"negative control: {bad}")
    return rounds, {"setup_s": setups, "import_s": [import_s],
                    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


# ---------------------------------------------------------------- cli-cold
def run_cli_cold(seed, seconds, trace, smoke):
    W = load_workloads()
    probe = HostProbe()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{os.getpid()}"
    side = RESULTS / f"child-{tag}.json"
    dump_dir = RESULTS / f"dumps-{tag}"
    dump_dir.mkdir(exist_ok=True)
    slots = W.cli_cold(lambda j: dump_dir / f"blocks-{j}.json", smoke)
    info_all = []

    def spawn(argv, spans=False):
        env = child_env(PERFBENCH_CHILD_OUT=str(side),
                        PERFBENCH_TRACE="1" if trace else "0",
                        PERFBENCH_SPANS="1" if spans else "0")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "entry.py"), *argv],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        with open(side, encoding="utf-8") as fh:
            info = json.load(fh)
        side.unlink()
        info_all.append(info)
        return W.Result(proc.returncode, proc.stdout, proc.stderr, wall), info

    setups = []

    def first_invocation(i):
        """Set-up: the first, untimed invocation of a fresh process."""
        first = slots[0]
        pack = first.pack(seed, -1 - i)
        res, _ = spawn(first.argv(pack, -1 - i))
        if first.check(pack, res, -1 - i) != "ok":
            raise BenchError("first invocation failed")
        setups.append(res.wall)

    def execute(slot, pack, j):
        res, info = spawn(slot.argv(pack, j), spans=j == 0)
        return res, info.get("agg")

    try:
        # the host's level over the run: one kernel burst per second
        extra = [Spread(1 if smoke else seconds, seconds, lambda i: probe.burst()),
                 Spread(1 if smoke else SETUP_REPEATS, seconds, first_invocation)]
        # the level in the parent around a child follows the child's host
        # state poorly (see README), so cold calls get the run's correction
        rounds = Rounds(slots, probe, per_op_level=False)
        rounds.run(seed, seconds, execute, one_round=smoke, extra=extra)

        # the same dump twice must give the same bytes
        dump_slot = next(s for s in slots if s.name == "verify-rmatrix-dump")
        pack = dump_slot.pack(seed, 0)
        res, _ = spawn(dump_slot.argv(pack, "again"))
        if res.rc != 0 or ((dump_dir / "blocks-again.json").read_bytes()
                           != (dump_dir / "blocks-0.json").read_bytes()):
            rounds.problems.append("two dumps of one pack differ")
    finally:
        for f in dump_dir.glob("*.json"):
            f.unlink()
        dump_dir.rmdir()
        side.unlink(missing_ok=True)
    return rounds, {"setup_s": setups, "import_s": [i["import_s"] for i in info_all],
                    "peak_rss_kb": max(i["vmhwm_kb"] for i in info_all)}


# ------------------------------------------------------------------- main
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    ap.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qhopf" / "cli.py").is_file():
        print(f"error: no qhopf sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe is not None:
            setup_probe(args.workload, args.seed, args.setup_probe, args.smoke)
            return 0
        if args.workload == "cli-cold":
            rounds, info = run_cli_cold(args.seed, args.seconds, args.trace, args.smoke)
        else:
            rounds, info = run_inprocess(args.workload, args.seed, args.seconds,
                                         args.trace, args.smoke)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "blas_env": BLAS_ENV,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": sys.modules["numpy"].__version__},
              "attempted": rounds.attempted, "failed": rounds.failed,
              "problems": rounds.problems, "per_op": rounds.per_op()}
    record["setup_raw_s"] = info["setup_s"]
    record["host_kernel_s"] = rounds.probe.sample
    record["pass_raw_s"] = rounds.pass_raw_s()
    if args.trace:
        layers, repeat = rounds.layer_metrics()
        layers["cli.import_s"] = min(info["import_s"])
        layers["trace.pass_s"] = rounds.pass_s()
        if not repeat:
            rounds.problems.append("work counts differ between repetitions of a slot")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
        record["spans_first_pass"] = rounds.first_spans()
    else:
        metrics = {
            # the mean host correction of the run's operations (see README)
            "setup_s": {"value": statistics.median(info["setup_s"]) * rounds.pass_s()
                        / rounds.pass_raw_s(), "unit": "s"},
            "pass_s": {"value": rounds.pass_s(), "unit": "s"},
            "peak_rss_mb": {"value": info["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(RESULTS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for p in rounds.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not rounds.problems, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


def _unit(key):
    if key in tracing.COUNT_METRICS:
        return "count"
    return "ratio" if key == "hopf.product_reuse" else "s"


if __name__ == "__main__":
    sys.exit(main())
