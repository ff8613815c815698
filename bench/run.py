"""The optiplanar benchmark.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {verify,sweep,build} --seed N \
        --seconds S --trace {0,1} [--smoke]

The workload's round of operations runs once untimed, to warm up, and
then repeats in a closed loop with one client until at least S seconds
of operations and enough samples for the tail percentile have run.
Every operation's output is checked against an answer known from
construction, and its garbage is collected before the next one starts.

Times are given in seconds at the reference speed.  A shared host may
take half as long again over any Python code, the program's and every
other, for seconds to minutes at a time, so no run length in reach
averages that out.  A fixed reference kernel of pure-Python work, which
never calls the package, is therefore timed right before and right after
every operation and every set-up, and the measured seconds are scaled by
REF_SECONDS over the mean of those two kernel times.  The seconds as
measured are kept beside them in the details file, and their throughput
and medians are printed on an ``as measured`` line.  Each operation of
the round gets its mean scaled latency over the run; ``ops_per_s`` is
the round's size over the sum of those means, ``op_p50_s`` their median
and ``op_tail_s`` their percentile.  The corpus is built from the seed in three batches, before
the loop, halfway and after it, each at least once and for at least
SETUP_BATCH_SECONDS; ``setup_s`` is the median scaled build time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, S/2 seconds of each, and prints per-layer
calls, busy and self seconds per operation, work counts, the tracing
overhead and log-log scaling fits.  ``--smoke`` shrinks every input, for
the benchmark's own tests (``python3 -m pytest bench``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (machine facts, per-operation input facts, failures, spans) go to
``.bench_out/<workload>-trace<T>.json`` in the checkout; scratch
documents live under ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s is the median of set-ups made in batches spread over the run;
# each batch repeats the set-up until it has taken this long
SETUP_BATCH_SECONDS = 0.5
MAX_FAILURES_KEPT = 20
# The reference speed: the reference kernel's time when the host the
# baseline was measured on (Intel Xeon at 2.1 GHz, CPython 3.11.7) ran at
# full speed, the low end of 37,000 back-to-back timings over 40 seconds.
REF_SECONDS = 7.2e-4


def reference_kernel() -> int:
    """A fixed slice of pure-Python work (dict stores and lookups) whose
    time tells the host's current speed."""
    total = 0
    table: dict[int, int] = {}
    for i in range(5000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


def kernel_seconds() -> float:
    """The faster of two back-to-back kernel runs, so that an interrupt
    in one does not read as a slow host."""
    times = []
    for _ in range(2):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return min(times)


def _import_package():
    """Import optiplanar from this checkout's sources, never from elsewhere."""
    if not (SRC / "optiplanar" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC / 'optiplanar'}; run "
                 f"from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import optiplanar
    if Path(optiplanar.__file__).resolve().parent != SRC / "optiplanar":
        sys.exit(f"error: optiplanar was imported from "
                 f"{optiplanar.__file__}, not from {SRC}")


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


class Loop:
    """Closed loop over the round of operations, in order, round after
    round; a run may stop within a round."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        # seconds as measured, and the factor that scales each to the
        # reference speed, by sample
        self.latencies: list[float] = []
        self.scales: list[float] = []
        # scaled latencies of each operation of the round, by its position
        self.by_op: list[list[float]] = [[] for _ in ops]
        self.failures: list[tuple[int, str, str, str]] = []
        self.failed = 0
        self.busy = 0.0

    def run(self, seconds: float, min_ops: int) -> None:
        while self.busy < seconds or len(self.latencies) < min_ops:
            self._one()

    def run_round(self) -> None:
        for _ in self.ops:
            self._one()

    def _one(self) -> None:
        idx = len(self.latencies)
        op = self.op_at(idx)
        result = error = None
        before = kernel_seconds()
        if self.tracer is not None:
            self.tracer.op = idx
        start = perf_counter()
        try:
            result = op.run()
        except SystemExit as exc:  # argparse's way to report a usage error
            error = f"exit {exc.code} from argument parsing"
        except Exception as exc:  # any escape is a failed operation
            error = f"raised {exc!r}"
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        scale = 2 * REF_SECONDS / (before + kernel_seconds())
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # unreadable output fails the oracle
                error = f"output check raised {exc!r}"
        self.latencies.append(elapsed)
        self.scales.append(scale)
        self.by_op[idx % len(self.ops)].append(elapsed * scale)
        self.busy += elapsed
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append((idx, op.kind, op.facts.name, error))
        # the next operation starts without this one's garbage, as it
        # would in a fresh CLI process
        gc.collect()

    def op_means(self) -> list[float]:
        """Mean scaled latency over the run of each operation of the
        round."""
        return [statistics.fmean(lat) for lat in self.by_op if lat]

    @property
    def ops_per_s(self) -> float:
        """Throughput of one round at every operation's mean latency, so
        that a run stopped within a round weighs no operation more."""
        means = self.op_means()
        return len(means) / sum(means)

    def op_at(self, idx: int):
        return self.ops[idx % len(self.ops)]


def tail(loop: Loop, pct: int) -> tuple[float, int]:
    """Nearest-rank pct-th percentile of the operations' mean latencies,
    and the count of samples of the operations beyond it."""
    ordered = sorted(loop.op_means())
    rank = -(-pct * len(ordered) // 100)
    beyond = sum(len(lat) for lat in loop.by_op
                 if lat and statistics.fmean(lat) > ordered[rank - 1])
    return ordered[rank - 1], beyond


def min_ops_for(pct: int, round_size: int) -> int:
    """Fewest samples, in whole rounds, that leave 10 of the operations
    beyond the pct-th percentile of a round."""
    beyond = round_size + (pct * round_size // -100)
    return -(-10 // beyond) * round_size


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, loop: Loop, setup_times: list[float],
               raw_setup_times: list[float]) -> dict:
    p_tail, beyond = tail(loop, workload.tail_pct)
    print(f"tail: p{workload.tail_pct} over {len(loop.latencies)} samples, "
          f"{beyond} beyond it; set-up built {len(setup_times)} times")
    print(f"as measured: {len(loop.latencies) / loop.busy:.6g} ops/s, "
          f"median latency {statistics.median(loop.latencies):.6g} s, "
          f"median set-up {statistics.median(raw_setup_times):.6g} s; "
          f"the host ran at {statistics.median(loop.scales):.3f} of the "
          f"reference speed at the median, {min(loop.scales):.3f} to "
          f"{max(loop.scales):.3f}")
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(loop.ops_per_s, "1/s"),
        "op_p50_s": _metric(statistics.median(loop.op_means()), "s"),
        "op_tail_s": _metric(p_tail, "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, traced: Loop, untraced: Loop, share_gt2: float) -> dict:
    from spans import FITS, loglog_slope

    out = {name: _metric(value, unit) for name, (value, unit)
           in tracer.layer_metrics(traced.scales).items()}
    for name in FITS:
        points = [(traced.op_at(op).facts.m, busy)
                  for op, busy in tracer.busy_by_op(name,
                                                    traced.scales).items()]
        out[f"fit.{name}.exponent"] = _metric(loglog_slope(points), "1")
        print(f"fit: {name} busy time ~ m^{loglog_slope(points):.3f} over "
              f"{len(points)} operations")
    out["trace.ops_per_s"] = _metric(traced.ops_per_s, "1/s")
    out["trace.untraced_ops_per_s"] = _metric(untraced.ops_per_s, "1/s")
    out["trace.overhead"] = _metric(
        untraced.ops_per_s / traced.ops_per_s - 1, "ratio")
    out["input.parallel_gt2_share"] = _metric(share_gt2, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "sweep", "build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    _import_package()
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    print("machine: " + json.dumps(facts))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                    dir=ROOT / ".bench_work"))
    try:
        setup_times: list[float] = []
        raw_setup_times: list[float] = []

        def set_up():
            workdir = scratch / f"setup-{len(setup_times)}"
            workdir.mkdir()
            before = kernel_seconds()
            start = perf_counter()
            corpus = workload.setup(args.seed, workdir, args.smoke)
            elapsed = perf_counter() - start
            raw_setup_times.append(elapsed)
            setup_times.append(
                elapsed * 2 * REF_SECONDS / (before + kernel_seconds()))
            return corpus, workdir

        def set_up_batch(spent: float = 0.0):
            """Build the corpus again and again, then drop the copies."""
            while spent < SETUP_BATCH_SECONDS:
                _corpus, workdir = set_up()
                spent += raw_setup_times[-1]
                del _corpus
                shutil.rmtree(workdir)
            gc.collect()

        corpus, workdir = set_up()
        if args.trace == 0:
            set_up_batch(raw_setup_times[-1])
        ops = workload.plan(corpus, args.seed, workdir)
        # the corpus lives for the whole run; keep the collector from
        # rescanning it, as it would not in a process holding one document
        gc.collect()
        gc.freeze()

        # one untimed round first, so that no operation's figures carry
        # the first calls' imports and cold caches; it is checked too
        warm = Loop(ops)
        warm.run_round()
        if args.trace == 0:
            loops = [Loop(ops)]
            loops[0].run(args.seconds / 2, 0)
            set_up_batch()
            loops[0].run(args.seconds,
                         min_ops_for(workload.tail_pct, len(ops)))
            set_up_batch()
        else:
            # alternate untraced and traced rounds, so that a drift of
            # the machine's speed does not show as tracing overhead
            tracer = Tracer()
            loops = [Loop(ops), Loop(ops, tracer)]
            while min(lp.busy for lp in loops) < args.seconds / 2:
                loops[0].run_round()
                tracer.install()
                try:
                    loops[1].run_round()
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # facts of build outputs are filled in by their checks
    share_gt2 = sum(op.facts.max_parallel > 2 for op in ops) / len(ops)
    if args.trace == 0:
        metrics = end_to_end(workload, loops[0], setup_times,
                             raw_setup_times)
    else:
        metrics = per_layer(tracer, loops[1], loops[0], share_gt2)

    attempted = sum(len(lp.latencies) for lp in loops + [warm])
    failed = sum(lp.failed for lp in loops + [warm])
    failures = [f for lp in [warm] + loops for f in lp.failures]
    print(f"workload: {workload.name} seed {args.seed}: {attempted} "
          f"operations, {failed} failed, round of {len(ops)} operations, "
          f"{share_gt2:.3f} of them on inputs with a parallel class > 2")
    print(f"error_rate {failed / attempted:.6f} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for idx, kind, doc, error in failures:
        print(f"FAILED op {idx} ({kind} on {doc}): {error}")

    detail = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "machine": facts, "ref_seconds": REF_SECONDS,
        "setup_s": setup_times, "raw_setup_s": raw_setup_times,
        "error_rate": failed / attempted, "failures": failures,
        "docs": {op.facts.name: vars(op.facts) for op in ops},
        # [loop, sample, kind, document, seconds as measured, scale]
        "ops": [[lp_i, idx, loops[lp_i].op_at(idx).kind,
                 loops[lp_i].op_at(idx).facts.name, lat, lp.scales[idx]]
                for lp_i, lp in enumerate(loops)
                for idx, lat in enumerate(lp.latencies)],
        "op_mean_s": [lp.op_means() for lp in loops],
        "metrics": metrics,
    }
    if args.trace == 1:
        detail["spans"] = tracer.spans
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
