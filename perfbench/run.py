"""End-to-end benchmark of the Zaatar pipeline: one verified verdict at a time.

Run from the repository root::

    python3 perfbench/run.py --workload b8 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Every metric is printed by name with its unit; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full artifact (each normalized timing beside its raw
seconds and the run's calibration) lands in ``perfbench/out/``.

Timings are in reference-host seconds: raw × C_REF / C_run, where
C_run is the median of ``calib.kernel`` measured in a helper process
while the workload is idle (see ``calib.py`` and ``README.md``).

The run fails (exit 1, ``"correct": false``) when an accepted instance's
outputs differ from the reference evaluation or when the soundness
canary is accepted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import C_REF

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: cold set-up repetitions per run, each in a fresh process
SETUP_REPS = 21
#: calibration kernel runs per idle gap (at least, and at most)
CALIB_REPS = 3
CALIB_MAX_REPS = 16
#: the served window's slices (calibration gaps and set-ups between them)
SERVED_SLICES = 7

#: end-to-end metrics: name -> unit; timings are normalized
E2E_UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "instances_per_s": "1/s",
    "verifier_cpu_s_per_instance": "s",
    "prover_cpu_s_per_instance": "s",
    "verified_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "wire_bytes_per_instance": "bytes",
}


def per_layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.startswith("net.bytes"):
        return "bytes"
    return "count"


# -- helper processes -------------------------------------------------------------


class Calibration:
    """The calibration kernel in a helper process, sampled on demand."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calib.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        #: kernel seconds, one list per idle gap, in run order
        self.gaps: list[list[float]] = []

    def gap(self, work_seconds: float = 0.0) -> None:
        """Sample the kernel while the workload idles.

        The gap lasts about a tenth of ``work_seconds`` (the work just
        finished; at least ``CALIB_REPS`` kernel runs), so the samples
        spread over the run in proportion to the time it measures.
        """
        reps = min(CALIB_MAX_REPS, max(CALIB_REPS, round(0.1 * work_seconds / C_REF)))
        self.proc.stdin.write(f"{reps}\n")
        self.proc.stdin.flush()
        self.gaps.append(json.loads(self.proc.stdout.readline()))

    @property
    def c_run(self) -> float:
        """The run's calibration: median over every gap."""
        return statistics.median(x for gap in self.gaps for x in gap)

    def close(self) -> None:
        _stop(self.proc)


def _stop(proc: subprocess.Popen) -> None:
    """Ask a helper to exit (a line or EOF on stdin); wait for it."""
    try:
        proc.stdin.write("0\n")
        proc.stdin.close()
    except (BrokenPipeError, OSError):
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Helper:
    """A ``probe.py`` role in its own process, up once it printed its
    ready line (``self.ready``); ``close`` stops it."""

    def __init__(self, *args: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            _stop(self.proc)
            raise RuntimeError(f"probe.py {' '.join(args)} failed to start")
        self.ready = json.loads(line)

    @property
    def address(self) -> tuple:
        return tuple(self.ready["address"])

    def close(self) -> None:
        _stop(self.proc)


class Setups:
    """Cold set-ups, each in a process forked for it (``probe.py setup``).

    They are spread over the timed window in proportion to the time it
    has measured, so they sample the host's speed over the same span as
    the calibration gaps do: on a shared host the speed drifts within a
    second, and set-ups taken back to back would all see one moment.
    """

    def __init__(self, workload: str):
        # the helper imports the program before it is ready: nothing
        # timed may run while it does
        self.helper = Helper("setup", workload)
        self.seconds: list[float] = []  # raw

    def until(self, share: float) -> None:
        """Take set-ups until ``share`` of the ``SETUP_REPS`` are in."""
        while len(self.seconds) < round(SETUP_REPS * min(share, 1.0)):
            proc = self.helper.proc
            proc.stdin.write("1\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("set-up probe failed")
            self.seconds.append(json.loads(line)["setup_s"])

    def close(self) -> None:
        self.helper.close()


def _proc_tree(pid: int):
    """``pid`` and its live descendants (Linux ``/proc``)."""
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            for task in Path(f"/proc/{p}/task").iterdir():
                stack.extend(int(c) for c in (task / "children").read_text().split())
        except FileNotFoundError:
            continue
        yield p


def _proc_cpu(pid: int) -> float:
    """CPU seconds of ``pid`` and its live descendants."""
    total = 0
    for p in _proc_tree(pid):
        with contextlib.suppress(FileNotFoundError):
            fields = Path(f"/proc/{p}/stat").read_text().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mib(pid: int) -> float:
    """Largest peak RSS among ``pid`` and its live descendants."""
    peak = 0.0
    for p in _proc_tree(pid):
        with contextlib.suppress(FileNotFoundError):
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024)
    return peak


def _own_peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# -- results ------------------------------------------------------------------------


@dataclass
class Verdict:
    """One batch or session: raw wall seconds until its verdict."""

    id: int
    wall: float
    traced: bool


@dataclass
class Run:
    """What one workload run measured, before normalization."""

    attempted: int = 0
    verified: int = 0
    wrong_outputs: int = 0
    canary_accepted: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # raw seconds
    verdicts: list = field(default_factory=list)
    busy: float = 0.0  # raw seconds the timed verdicts took
    verifier_cpu: float = 0.0
    prover_cpu: float = 0.0
    peak_rss_mib: float = 0.0
    wire_bytes_per_instance: float = 0.0
    #: a traced served run's two phases: traced -> (first, end) calibration gap
    phases: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.wrong_outputs and not self.canary_accepted

    def walls(self, traced: bool | None = None) -> list[float]:
        """Raw verdict seconds (all, or only the traced or untraced ones)."""
        return [v.wall for v in self.verdicts if traced is None or v.traced == traced]


@contextlib.contextmanager
def _phase(run: Run, calib: "Calibration", traced: bool):
    """Mark the calibration gaps taken during one phase of a traced run."""
    first = len(calib.gaps)
    yield
    run.phases[traced] = (first, len(calib.gaps))


def _overhead(run: Run, calib: "Calibration") -> float:
    """Tracing overhead: the median traced verdict over the median plain
    one, minus one.  Traced verdicts run with the layer wrappers
    installed and a tracer bound; plain ones with no wrapper installed.
    Where the two ran in separate phases (``served``), each median is
    put in reference seconds by the calibration of its own phase."""

    def normalized(traced: bool) -> float:
        first, end = run.phases.get(traced, (0, len(calib.gaps)))
        c = statistics.median(x for gap in calib.gaps[first:end] for x in gap)
        return statistics.median(run.walls(traced)) / c

    return normalized(True) / normalized(False) - 1.0


def _verify_outputs(run: Run, results, expected: list[list[int]]) -> None:
    for result, want in zip(results, expected):
        run.attempted += 1
        if result.accepted and list(result.output_values) == want:
            run.verified += 1
        elif result.accepted:
            run.wrong_outputs += 1


def _bound(tracer):
    """Record this thread's spans into ``tracer`` (no-op for None)."""
    from repro import telemetry

    return contextlib.nullcontext() if tracer is None else telemetry.thread_tracer(tracer)


@contextlib.contextmanager
def _verdict_scope(tracer, verdict_id: int):
    """One verdict's root span in ``tracer``; untraced for None."""
    from repro import telemetry

    import layers

    with _bound(tracer), telemetry.span(layers.ROOT, id=verdict_id):
        yield


def _start_tracing():
    """Install the layer wrappers; returns a fresh tracer and the
    function that removes the wrappers again."""
    from repro import telemetry

    import layers

    return telemetry.Tracer(), layers.install()


def _analyze(run: Run, tracer, instances_per_verdict: dict, workers: int = 0) -> None:
    """Fill ``run.layers`` and ``run.spans`` from a traced run's spans."""
    import layers

    forest = layers.SpanForest(tracer.spans)
    run.layers = layers.analyze(forest, instances_per_verdict, workers)
    run.layers.update(layers.setup_metrics(forest))
    run.spans = forest.records()


# -- batch workloads ------------------------------------------------------------------


def _batch_verdicts(
    run: Run, ctx, seed: int, seconds: float, calib: Calibration, tracer=None, setups=None
):
    """The closed loop: batches until ``seconds`` of busy time (at least
    two); after each, the ``setups`` due by then (if given) and a
    calibration gap.

    With a ``tracer``, every other batch is traced, with the layer
    wrappers installed for that batch only; the batches between run
    plain, so the overhead compares neighbours on a drifting host.
    """
    import layers
    import workloads

    spec = ctx.spec
    while len(run.verdicts) < 2 or run.busy < seconds:
        index = len(run.verdicts)
        traced = tracer is not None and index % 2 == 0
        # b8 and b8-workers share inputs and seeds: same work, two paths
        inputs = ctx.inputs(spec.app, seed, index)
        expected = [ctx.expected(x) for x in inputs]
        verdict_seed = workloads.derive_seed(spec.app, seed, index)
        remove_wrappers = layers.install() if traced else None
        children_before = _children_cpu()
        start = time.perf_counter()
        with _verdict_scope(tracer if traced else None, index):
            result, parallel = ctx.prove(ctx.argument, inputs, verdict_seed)
        wall = time.perf_counter() - start
        if remove_wrappers is not None:
            remove_wrappers()
        run.busy += wall
        _verify_outputs(run, result.instances, expected)
        if parallel is None:
            prover_cpu = sum(p.e2e for p in result.stats.prover_per_instance)
        else:
            # forked workers are joined before run_parallel_batch returns
            prover_cpu = _children_cpu() - children_before
            for key in ("retries", "worker_deaths"):
                counter = f"parallel.{key}"
                run.extra[counter] = run.extra.get(counter, 0) + getattr(parallel, key)
        run.verdicts.append(Verdict(index, wall, traced))
        run.verifier_cpu += result.stats.verifier.total
        run.prover_cpu += prover_cpu
        if setups is not None:
            setups.until(run.busy / seconds)
        calib.gap(wall)


def run_batch_workload(name: str, seed: int, seconds: float, trace: bool, calib: Calibration) -> Run:
    import workloads

    run = Run()
    tracer = None
    if trace:
        # set-up runs traced: its spans give the compiler and QAP build
        tracer, remove_wrappers = _start_tracing()
    with _bound(tracer):
        ctx = workloads.setup_batch(name)
    if trace:
        remove_wrappers()
    # the canary runs first: it is untimed, and it fills the process's
    # plan caches the way the first batch otherwise would
    run.canary_accepted = workloads.run_canary(ctx, seed)
    calib.gap()

    setups = None if trace else Setups(name)
    try:
        _batch_verdicts(run, ctx, seed, seconds, calib, tracer, setups)
    finally:
        if setups is not None:
            setups.close()
    if trace:
        run.extra["trace.overhead_ratio"] = _overhead(run, calib)
        traced = {v.id: ctx.spec.beta for v in run.verdicts if v.traced}
        _analyze(run, tracer, traced, ctx.spec.workers or 0)
        return run
    run.setups = setups.seconds
    run.peak_rss_mib = _own_peak_rss_mib()
    run.wire_bytes_per_instance = workloads.wire_bytes_per_instance(ctx, seed)
    return run


# -- served -------------------------------------------------------------------------


#: session ids of the plain phase of a traced served run start here
#: (a multiple of the program count: the rotation stays the same)
PLAIN_PHASE_IDS = 1_000_000


def _served_window(
    run: Run,
    programs,
    seed: int,
    seconds: float,
    calib: Calibration,
    tracer=None,
    first_id=0,
    setups=None,
) -> dict:
    """One gateway (with the layer wrappers iff ``tracer``), warmed up,
    then the closed loop for ``seconds``, the ``setups`` due (if given)
    between its slices; returns the gateway's ``fetch_stats``.

    Session records land in ``run.extra["sessions"]``.
    """
    import workloads
    from repro.argument import ProtocolViolation, fetch_stats, verify_remote

    field = workloads.served_field()
    gateway = Helper("gateway", "0" if tracer is None else "1")
    try:
        # one untimed session per program warms both ends' code paths
        for warm_id in range(-len(programs), 0):
            index, inputs, want, sseed = workloads.served_session(warm_id, seed, field.p)
            outcome = verify_remote(
                programs[index], [inputs], gateway.address, workloads.served_config(sseed)
            )
            if not outcome.all_accepted:
                raise RuntimeError("warm-up session was rejected")
        calib.gap()

        lock = threading.Lock()
        sessions = run.extra.setdefault("sessions", [])
        sent_by_thread = [0] * workloads.SERVED_CLIENTS

        def client(thread: int, stop_at: float) -> None:
            while time.perf_counter() < stop_at:
                sid = first_id + thread + workloads.SERVED_CLIENTS * sent_by_thread[thread]
                sent_by_thread[thread] += 1
                index, inputs, want, sseed = workloads.served_session(sid, seed, field.p)
                config = workloads.served_config(sseed)
                record = {"id": sid, "program": index, "traced": tracer is not None}
                start = time.perf_counter()
                try:
                    with _verdict_scope(tracer, sid):
                        outcome = verify_remote(programs[index], [inputs], gateway.address, config)
                except ProtocolViolation as exc:
                    record.update(wall=time.perf_counter() - start, ok=False, error=exc.code)
                else:
                    result = outcome.instances[0]
                    record.update(
                        wall=time.perf_counter() - start,
                        ok=result.accepted and list(result.output_values) == want,
                        wrong=result.accepted and list(result.output_values) != want,
                        sent=outcome.bytes_sent,
                        received=outcome.bytes_received,
                        attempts=outcome.attempts,
                    )
                with lock:
                    sessions.append(record)

        # the window is cut into slices with the clients idle between
        # them, so calibration samples spread over the window too
        pid = gateway.ready["pid"]
        for done in range(1, SERVED_SLICES + 1):
            cpu_before = time.process_time()
            gateway_before = _proc_cpu(pid)
            start = time.perf_counter()
            threads = [
                threading.Thread(target=client, args=(t, start + seconds / SERVED_SLICES))
                for t in range(workloads.SERVED_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            run.busy += time.perf_counter() - start
            run.verifier_cpu += time.process_time() - cpu_before
            run.prover_cpu += _proc_cpu(pid) - gateway_before
            if setups is not None:
                setups.until(done / SERVED_SLICES)
            calib.gap(seconds / SERVED_SLICES)

        stats = fetch_stats(gateway.address)
        run.peak_rss_mib = max(run.peak_rss_mib, _own_peak_rss_mib(), _proc_hwm_mib(pid))
    finally:
        gateway.close()
    return stats


def _served_canary(program, seed: int) -> list[str]:
    import workloads

    cheater = Helper("cheater")
    try:
        return workloads.run_served_canary(program, cheater.address, seed)
    finally:
        cheater.close()


def run_served(seed: int, seconds: float, trace: bool, calib: Calibration) -> Run:
    import workloads

    run = Run()
    tracer = None
    if trace:
        tracer, remove_wrappers = _start_tracing()
    with _bound(tracer):
        programs = workloads.compile_served(workloads.served_field())
    run.canary_accepted = _served_canary(programs[0], seed)

    if trace:
        # half the window traced, then half plain for the overhead
        with _phase(run, calib, True):
            stats = _served_window(run, programs, seed, seconds / 2, calib, tracer)
        remove_wrappers()
        with _phase(run, calib, False):
            _served_window(run, programs, seed, seconds / 2, calib, first_id=PLAIN_PHASE_IDS)
    else:
        setups = Setups(workloads.SERVED)
        try:
            stats = _served_window(run, programs, seed, seconds, calib, setups=setups)
        finally:
            setups.close()
        run.setups = setups.seconds

    sessions = sorted(run.extra.pop("sessions"), key=lambda r: r["id"])
    run.attempted = len(sessions)
    run.verified = sum(1 for r in sessions if r["ok"])
    run.wrong_outputs = sum(1 for r in sessions if r.get("wrong"))
    run.verdicts = [Verdict(r["id"], r["wall"], r["traced"]) for r in sessions]
    done = [r for r in sessions if "sent" in r]
    # the mean, not the median: the program mix makes the median two-valued
    run.wire_bytes_per_instance = statistics.mean(r["sent"] + r["received"] for r in done)
    walls = run.walls(traced=False)
    # a percentile needs ten samples beyond it (raw seconds here;
    # main() normalizes it)
    run.extra["verdict_p90_s"] = (
        statistics.quantiles(walls, n=10)[-1] if len(walls) >= 100 else None
    )
    run.extra["verdict_samples"] = len(walls)

    counters = stats["metrics"]["counters"]
    queue_wait = stats["metrics"]["histograms"].get("gateway.queue_wait_seconds", {})
    # per program: bytes of its first untraced session (exact per seed)
    first_untraced = {}
    for r in done:
        if not r["traced"]:
            first_untraced.setdefault(r["program"], r)
    by_program = {
        workloads.SERVED_PROGRAMS[i][0]: {"sent": r["sent"], "received": r["received"]}
        for i, r in sorted(first_untraced.items())
    }
    run.extra["net.bytes_by_program"] = by_program
    run.extra["serve.queue_wait_p50_s"] = queue_wait.get("p50")
    lease_wait = stats["metrics"]["histograms"].get("gateway.lease_wait_seconds", {})
    run.extra["serve.lease_wait_p50_s"] = lease_wait.get("p50")
    if tracer is not None:
        run.extra["trace.overhead_ratio"] = _overhead(run, calib)
        _analyze(run, tracer, {r["id"]: 1 for r in sessions if r["traced"] and r["ok"]})
    traced_walls = run.walls(traced=tracer is not None)
    run.layers.update(
        {
            "net.bytes_sent": statistics.mean(v["sent"] for v in by_program.values()),
            "net.bytes_received": statistics.mean(v["received"] for v in by_program.values()),
            "net.attempts": statistics.mean(r["attempts"] for r in done),
            "serve.sessions_ok": counters.get("sessions_ok", 0),
            "serve.session_errors": counters.get("session_errors", 0),
            "serve.shed": sum(v for k, v in counters.items() if k.startswith("gateway.shed.")),
            "serve.queue_wait_p50_share": (queue_wait.get("p50") or 0.0)
            / statistics.median(traced_walls),
        }
    )
    return run


# -- reporting ----------------------------------------------------------------------

#: per-layer metrics every traced run reports (BENCHMARK.json's list)
PER_LAYER = (
    "crypto.prg.blocks",
    "crypto.prg.s",
    "crypto.elgamal.encrypt_s",
    "crypto.elgamal.encryptions",
    "crypto.elgamal.decrypt_s",
    "crypto.commitment.fold_s",
    "crypto.commitment.fold_terms",
    "crypto.commitment.answer_s",
    "crypto.commitment.challenge_s",
    "crypto.commitment.verify_s",
    "pcp.schedule_s",
    "pcp.queries",
    "pcp.check_s",
    "qap.build_s",
    "qap.construct_u_s",
    "qap.interpolate_s",
    "qap.multiply_s",
    "qap.divide_s",
    "qap.circuit_queries_s",
    "qap.proof_vector_len",
    "compiler.compile_s",
    "compiler.solve_s",
    "compiler.constraints",
    "argument.verifier_setup_s",
    "argument.self_s",
    "parallel.fanout_share",
    "parallel.worker_busy_ratio",
    "parallel.retries",
    "parallel.worker_deaths",
    "net.bytes_sent",
    "net.bytes_received",
    "net.attempts",
    "net.client_setup_share",
    "net.server_wait_share",
    "serve.queue_wait_p50_share",
    "serve.sessions_ok",
    "serve.session_errors",
    "serve.shed",
    "serve.schedule_cache_hit_ratio",
    "trace.attributed_ratio",
    "trace.overhead_ratio",
    "host.calib_s",
)


def entry(raw, unit: str, c_run: float) -> dict:
    """One metric: timings normalized to reference-host seconds (``raw ×
    C_REF / c_run``, rates the inverse), each with its raw value and
    ``calib_s`` = ``c_run``."""
    if unit == "s":
        return {"value": raw * C_REF / c_run, "unit": unit, "raw": raw, "calib_s": c_run}
    if unit == "1/s":
        return {"value": raw * c_run / C_REF, "unit": unit, "raw": raw, "calib_s": c_run}
    return {"value": raw, "unit": unit}


def report(run: Run, trace: bool, c_run: float) -> dict:
    """The metrics of one run: ``{name: {"value", "unit", ...}}``."""

    if not trace:
        instances = max(run.attempted, 1)
        raw = {
            "setup_s": statistics.median(run.setups),
            "verdict_p50_s": statistics.median(run.walls()),
            "instances_per_s": run.verified / run.busy,
            "verifier_cpu_s_per_instance": run.verifier_cpu / instances,
            "prover_cpu_s_per_instance": run.prover_cpu / instances,
            "verified_ratio": run.verified / instances,
            "peak_rss_mib": run.peak_rss_mib,
            "wire_bytes_per_instance": run.wire_bytes_per_instance,
        }
        return {name: entry(value, E2E_UNITS[name], c_run) for name, value in raw.items()}
    values = dict(run.layers)
    values["parallel.retries"] = run.extra.get("parallel.retries", 0)
    values["parallel.worker_deaths"] = run.extra.get("parallel.worker_deaths", 0)
    values["trace.overhead_ratio"] = run.extra["trace.overhead_ratio"]
    out = {name: entry(values.get(name, 0), per_layer_unit(name), c_run) for name in PER_LAYER}
    out["host.calib_s"] = {"value": c_run, "unit": "s"}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if workloads.one_cpu(args.workload):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calib = Calibration()
    try:
        # a longer first gap: the host's speed before any work starts
        calib.gap(5.0)
        if args.workload == workloads.SERVED:
            run = run_served(args.seed, args.seconds, bool(args.trace), calib)
        else:
            run = run_batch_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), calib
            )
        c_run = calib.c_run
    finally:
        calib.close()

    metrics = report(run, bool(args.trace), c_run)
    if run.extra.get("verdict_p90_s") is not None:
        run.extra["verdict_p90_s"] = entry(run.extra["verdict_p90_s"], "s", c_run)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        raw = f"  (raw {metric['raw']:.6g})" if "raw" in metric else ""
        print(f"{name:<34} {shown:>14} {metric['unit']}{raw}")
    if run.canary_accepted:
        print(f"FAIL: soundness canary accepted: {', '.join(run.canary_accepted)}")
    if run.wrong_outputs:
        print(f"FAIL: {run.wrong_outputs} accepted instance(s) with wrong outputs")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "c_ref": C_REF,
        "host.calib_s": c_run,
        "calib_gaps_s": calib.gaps,
        "setup_raw_s": run.setups,
        "verdicts": [vars(v) for v in run.verdicts],
        # a percentile needs ten samples beyond it in the run
        "verdict_p50_supported": len(run.verdicts) >= 20,
        "canary_accepted": run.canary_accepted,
        "extra": run.extra,
        # every per-layer value before normalization, including the
        # seconds behind the *_share metrics
        "layers_raw": run.layers,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(artifact, indent=2) + "\n")
    if run.spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for record in run.spans:
                fh.write(json.dumps(record) + "\n")

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.attempted - run.verified,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
