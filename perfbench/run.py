"""Benchmark: time from a CLI invocation to a replayed, reference-checked
verdict, over seeded workloads.

    python3 perfbench/run.py --workload toral-solenoid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` of that checkout and nowhere else.  Every op is one in-process
call of `ergodec.cli.main([command, input, ..., "--verify-report"])`,
which is what a user runs minus interpreter start-up.  Ops run as a closed
loop from one client with no threads; each has a deadline enforced with
SIGALRM, and a timed-out op counts as exactly the deadline.  A pass runs
every op of the workload once; passes repeat while another one fits in
`--seconds` (at least one runs).  An op that timed out in the first pass is
charged the deadline in later passes without running again.  Times are
in reference-host seconds (see `probe`); each op's latency is its median
over the passes, `wall_s` is one pass at those latencies, and
`op_p50_ms` / `op_p90_ms` are percentiles across ops.

After timing, each op's report is parsed and checked against an
independent sympy reference (perfbench/reference.py), outside every timed
region.  A verdict that contradicts the reference, or a report that
differs between passes, prints `"correct": false` and exits 1.  Inputs
on which the library is known to fail (workloads.KNOWN_DEFECTS) are not
among the ops: each runs once after timing, untimed, and the output says
whether it still fails.

Standard output: one JSON line of run metadata, one JSON line listing
every failed op (input id, command, exception type or exit code), any
contradiction and the known-defect outcomes, and last the result object.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs an untraced,
a traced and another untraced pass and reports the per-layer metrics from
perfbench/layertrace.py, with `known_defects.reproduced`, the number of
known-defect inputs that still fail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "ergodec"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

# Per-op deadlines (seconds).  Each is at least twice the slowest op that
# finishes and at most half the fastest one that does not, on the
# reference machine, so the set of timed-out ops does not flip between runs.
DEADLINES = {"toral-solenoid": 2.0, "laurent-modules": 3.0, "oracle-box": 8.0}
SETUP_REPEATS = 9

# Host-speed probe.  A shared host runs at changing speed for seconds at
# a time: on the 2-CPU reference host the CPU time of a fixed loop varied
# 2x over 100 s, with slow stretches longer than a whole run.  Every timed
# region is bracketed by this probe and scaled by REFERENCE_PROBE_S over
# the probe's time, so reported times are in reference-host seconds; the
# raw sums are printed with the run metadata.  The probe mixes big-int
# arithmetic and interpreted tuple, set and dict work with an exact
# integer matrix power: over minutes of drift on that host, the ops'
# time moved 1.3x as far as the first two parts alone (in log terms) and
# 1.0x as far as the mix, so the mix scales the ops without a residual
# trend.
REFERENCE_PROBE_S = 0.0025
_PROBE_BASE = 3 ** 3000
_PROBE_MOD = 7 ** 2900 + 1
_PROBE_MATRIX = workloads.companion(6, 3, 1)


def probe():
    """Time of one pass over the probe's fixed mix."""
    start = time.perf_counter()
    x = _PROBE_BASE
    for _ in range(3):
        x = x * x % _PROBE_MOD
    seen, acc = set(), {}
    for i in range(700):
        w = (2 + i, -2, i * 8 % 97, i & 15)
        if w not in seen:
            seen.add(w)
        acc[i & 63] = acc.get(i & 63, 0) + i
    workloads.mat_pow(_PROBE_MATRIX, 40)
    return time.perf_counter() - start


def timed(fn):
    """(result, raw seconds, reference-host seconds) of fn()."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    scale = REFERENCE_PROBE_S / ((before + probe()) / 2)
    return result, raw, raw * scale


class OpTimeout(BaseException):
    """Raised from the SIGALRM handler; a BaseException so that no
    `except Exception` in the code under test swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


class Op:
    def __init__(self, index, input_id, path, doc, args):
        self.index = index
        self.input_id = input_id
        self.path = path
        self.doc = doc
        self.args = args
        self.command = args[0]

    def argv(self):
        return [self.command, str(self.path), *self.args[1:], "--verify-report"]


class Sample:
    """One execution of one op; `seconds` in reference-host seconds."""

    __slots__ = ("op", "seconds", "raw", "code", "error", "stdout")

    def __init__(self, op, seconds, raw, code, error, stdout):
        self.op = op
        self.seconds = seconds
        self.raw = raw
        self.code = code
        self.error = error
        self.stdout = stdout


def run_op(main, op, deadline):
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv())
    except OpTimeout:
        error = "timeout"
    except (Exception, SystemExit) as exc:  # recorded as a failed op
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    raw = deadline if error == "timeout" else time.perf_counter() - start
    return Sample(op, raw, raw, code, error, out.getvalue())


def run_pass(cli, ops, deadline, timed_out=frozenset()):
    """One op after another, with a host-speed probe between ops; ops in
    `timed_out` already hit the deadline in this run and are charged it
    again without running.  Each op's time is scaled by the median of the
    two probes before and the two after it."""
    started = time.perf_counter()
    samples = []
    probes = [probe()]
    for op in ops:
        if op.index in timed_out:
            samples.append(Sample(op, deadline, deadline, None, "timeout", ""))
        else:
            samples.append(run_op(cli.main, op, deadline))
        probes.append(probe())
    for i, sample in enumerate(samples):
        if sample.error != "timeout":
            speed = statistics.median(probes[max(0, i - 1):i + 3])
            sample.seconds = sample.raw * REFERENCE_PROBE_S / speed
    wall = time.perf_counter() - started + deadline * len(timed_out)
    return samples, wall


def timeouts(run):
    return frozenset(s.op.index for s in run[0] if s.error == "timeout")


def import_package():
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    __import__(f"{PACKAGE}.cli")
    return sys.modules[f"{PACKAGE}.cli"], sys.modules[f"{PACKAGE}.actions"]


def measure_setup(docs):
    """Median over repeats of: import the package afresh, then validate
    every input with build_action.  Returns the median, the cli module,
    and the ids of inputs whose validation raised (their ops fail too)."""
    times = []
    rejected = {}

    def setup():
        cli, actions = import_package()
        for input_id, doc in docs.items():
            try:
                actions.build_action(doc)
            except Exception as exc:  # recorded; the ops on it fail the same way
                rejected[input_id] = type(exc).__name__
        return cli

    for _ in range(SETUP_REPEATS):
        cli, _, seconds = timed(setup)
        times.append(seconds)
    return statistics.median(times), cli, rejected


def classify(sample, first, reference, mismatch):
    """'timeout', 'failed', 'contradicted' or 'decided', with a detail."""
    if sample.error == "timeout":
        return "timeout", None
    if sample.error is not None:
        return "failed", sample.error
    if sample.code not in (0, 3):
        return "failed", f"exit {sample.code}"
    if sample.stdout != first.stdout:
        return "contradicted", "report differs between passes"
    report = None
    if sample.code == 0:
        report = json.loads(sample.stdout)
        verification = report.get("verification") or {}
        if verification.get("failures", ["no verification block"]):
            return "failed", "replay failures"
    try:
        reference.check(sample.op.input_id, sample.op.doc, sample.op.command,
                        sample.code, report)
    except mismatch as exc:
        return "contradicted", str(exc)
    return "decided", report


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_metadata(args, ops, deadline, passes):
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "sympy": metadata.version("sympy"),
        "commit": commit, "source_sha256": digest.hexdigest()[:16],
        "deadline_s": deadline, "ops_per_pass": len(ops), "passes": passes,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "loop": "closed, one client, in-process",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no {PACKAGE} source under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    deadline = DEADLINES[args.workload]
    generated = workloads.generate(args.workload, args.seed)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, generated, deadline, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, generated, deadline, workdir):
    docs = {}
    ops = []
    for index, (input_id, doc, cmd) in enumerate(generated):
        path = workdir / f"{input_id}.json"
        if input_id not in docs:
            docs[input_id] = doc
            path.write_text(json.dumps(doc), encoding="utf-8")
        ops.append(Op(index, input_id, path, doc, cmd))

    setup_s, cli, rejected = measure_setup(docs)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"{PACKAGE} was imported from outside {SRC}\n")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    passes = []      # (samples, wall_s) of untraced passes
    traced = None    # (samples, wall_s, tracer) of the traced pass
    started = time.perf_counter()
    if args.trace:
        # Untraced passes on both sides of the traced one, so that warm-up
        # and drift do not show up as tracing overhead.
        passes.append(run_pass(cli, ops, deadline))
        tracer = Tracer(PACKAGE)
        restore = tracer.install()
        try:
            samples, wall = run_pass(cli, ops, deadline)
        finally:
            restore()
        traced = (samples, wall, tracer)
        passes.append(run_pass(cli, ops, deadline, timeouts(passes[0])))
    else:
        passes.append(run_pass(cli, ops, deadline))
        skip = timeouts(passes[0])
        while True:
            elapsed = time.perf_counter() - started
            if elapsed + passes[-1][1] - deadline * len(skip) > args.seconds:
                break
            passes.append(run_pass(cli, ops, deadline, skip))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    defects = check_known_defects(cli, args.workload, workdir, deadline)

    import reference as ref  # sympy loads after the memory peak is read
    checker = ref.Reference()
    every = [s for samples, _ in passes for s in samples]
    if traced:
        every += traced[0]
    first = passes[0][0]
    outcomes = [classify(s, first[s.op.index], checker, ref.Mismatch) for s in every]

    failures = {}
    contradictions = []
    for sample, (status, detail) in zip(every, outcomes):
        if status == "failed":
            failures.setdefault(sample.op.index, {
                "id": sample.op.input_id, "command": sample.op.command,
                "error": detail})
        elif status == "contradicted":
            contradictions.append({"id": sample.op.input_id,
                                   "command": sample.op.command, "detail": detail})

    attempted = len(every)
    count = {k: sum(1 for s, _ in outcomes if s == k)
             for k in ("decided", "failed", "timeout", "contradicted")}
    exact = sum(1 for s, d in outcomes
                if s == "decided" and ref.is_exact(d))

    meta = run_metadata(args, ops, deadline, len(passes))
    meta["slowest_finished_raw_s"] = max(
        (s.raw for samples, _ in passes for s in samples if s.error != "timeout"),
        default=0.0)
    if args.trace:
        metrics = layer_metrics(traced, passes, count, attempted)
        metrics["known_defects.reproduced"] = (
            sum(d["still_fails"] for d in defects), "count")
    else:
        # Each op's median over the run's passes.
        best = [statistics.median(p[i].seconds for p, _ in passes)
                for i in range(len(ops))]
        latencies = [b * 1000 for b in best]
        meta["raw_wall_s"] = sum(statistics.median(p[i].raw for p, _ in passes)
                                 for i in range(len(ops)))
        meta["latency_samples"] = len(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(best), "s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (percentile(latencies, 90), "ms"),
            "decided_share": (count["decided"] / attempted, "ratio"),
            "exact_share": (exact / max(count["decided"], 1), "ratio"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    print(json.dumps({"run": meta}))
    print(json.dumps({"failed_ops": list(failures.values()),
                      "failed_validation": rejected,
                      "contradicted_ops": contradictions[:20],
                      "known_defects": defects}))
    result = {
        "correct": not contradictions,
        "attempted": attempted,
        "failed": count["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def check_known_defects(cli, workload, workdir, deadline):
    """Run each known-defect input once, untimed, and record whether it
    still raises, times out or exits with an unexpected code."""
    out = []
    for index, (input_id, doc, args, defect) in enumerate(workloads.known_defects(workload)):
        path = workdir / f"{input_id}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        sample = run_op(cli.main, Op(index, input_id, path, doc, args), deadline)
        outcome = sample.error or f"exit {sample.code}"
        out.append({"id": input_id, "command": args[0], "defect": defect,
                    "outcome": outcome,
                    "still_fails": sample.error is not None or sample.code not in (0, 3)})
    return out


def tracing_overhead(traced, untraced):
    """Traced over mean untraced time of the ops that finished in every
    pass, minus one; timed-out ops cost the deadline either way."""
    keep = [i for i, s in enumerate(traced) if s.error != "timeout"
            and all(p[i].error != "timeout" for p, _ in untraced)]
    plain = statistics.mean(sum(p[i].seconds for i in keep) for p, _ in untraced)
    return sum(traced[i].seconds for i in keep) / plain - 1


def layer_metrics(traced, untraced, count, attempted):
    samples, wall, tracer = traced
    calls, inclusive, self_time = tracer.summary()
    c = tracer.counters

    def incl(name):
        return inclusive.get(name, 0.0)

    def layer_self(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix + "."))

    attempts, hits = tracer.count_under("toral.is_ergodic_element",
                                        "toral.find_ergodic_exponents")
    sizes = [len(s.stdout) / 1024 for s in samples if s.stdout]
    direction_calls = calls.get("laurent_engine.direction_is_ergodic", 0)
    checked = c.get("oracle.characters_checked", 0)
    m = {
        "matrices.pow_s": (incl("matrices.pow"), "s"),
        "matrices.pow_calls": (calls.get("matrices.pow", 0), "count"),
        "matrices.pow_max_exponent": (c.get("matrices.pow_max_exponent", 0), "count"),
        "matrices.pow_max_entry_bits": (c.get("matrices.pow_max_entry_bits", 0), "bits"),
        "matrices.det_s": (incl("matrices.det"), "s"),
        "matrices.kernel_s": (incl("matrices.kernel"), "s"),
        "matrices.rref_s": (incl("matrices.rref"), "s"),
        "matrices.char_poly_s": (incl("matrices.char_poly"), "s"),
        "matrices.inverse_s": (incl("matrices.inverse"), "s"),
        "intpoly.poly_gcd_s": (incl("intpoly.poly_gcd"), "s"),
        "intpoly.poly_gcd_calls": (calls.get("intpoly.poly_gcd", 0), "count"),
        "intpoly.cyclotomic_s": (incl("intpoly.cyclotomic"), "s"),
        "toral.self_s": (layer_self("toral"), "s"),
    }
    for fn in ("is_ergodic_element", "is_distal_element", "is_ergodic_group",
               "is_distal_group", "largest_ergodic_subgroup",
               "ergodic_distal_filtration", "find_ergodic_exponents"):
        m[f"toral.{fn}_s"] = (incl(f"toral.{fn}"), "s")
    m.update({
        "toral.search_attempts_per_hit": (attempts / hits if hits else 0.0, "ratio"),
        "laurent.bivar_gcd_s": (incl("laurent.bivar_gcd"), "s"),
        "laurent.bivar_gcd_calls": (calls.get("laurent.bivar_gcd", 0), "count"),
        "laurent.content_in_s": (incl("laurent.content_in"), "s"),
        "laurent.laurent_divides_s": (incl("laurent.laurent_divides"), "s"),
        "laurent.direction_power_minus_one_calls": (
            calls.get("laurent.direction_power_minus_one", 0), "count"),
        "laurent_engine.direction_is_ergodic_s": (
            incl("laurent_engine.direction_is_ergodic"), "s"),
        "laurent_engine.direction_is_ergodic_calls": (direction_calls, "count"),
        "laurent_engine.bounded_share": (
            c.get("laurent_engine.bounded_verdicts", 0) / direction_calls
            if direction_calls else 0.0, "ratio"),
        "oracle.cross_validate_s": (incl("oracle.cross_validate"), "s"),
        "oracle.characters_checked": (checked, "count"),
        "oracle.exceeded_share": (c.get("oracle.exceeded", 0) / checked
                                  if checked else 0.0, "ratio"),
        "replay.replay_report_s": (incl("replay.replay_report"), "s"),
        "replay.wall_share": (incl("replay.replay_report") / wall, "ratio"),
        "cli.self_s": (layer_self("cli"), "s"),
        "actions.build_action_s": (incl("actions.build_action"), "s"),
        "actions.dual_element_s": (incl("actions.dual_element"), "s"),
        "encoding.report_kib": (statistics.mean(sizes) if sizes else 0.0, "KiB"),
        "encoding.max_int_digits": (c.get("encoding.max_int_digits", 0), "digits"),
        "trace.overhead_share": (tracing_overhead(samples, untraced), "ratio"),
        "ops.failed_share": (count["failed"] / attempted, "ratio"),
        "ops.timeout_share": (count["timeout"] / attempted, "ratio"),
    })
    return m


if __name__ == "__main__":
    sys.exit(main())
