"""Helper processes the benchmark launches (never run by hand).

``python3 perfbench/probe.py setup <workload>``
    Times cold set-ups of one workload.  It imports the program once and
    prints ``{"ready": true}``; then each line ``1`` on stdin forks a
    child that performs one set-up, and it prints ``{"setup_s": ...}``;
    ``0`` or EOF ends it.  This process
    never sets up anything itself, so every child starts with the
    compiled-app cache, the NTT plan cache and every other per-process
    cache empty: no repetition reuses an object an earlier one warmed.
    A batch workload's set-up is compile, build the QAP and warm its
    lazy artifacts; ``served``'s is compiling and registering the
    programs and starting the gateway until a session can be admitted.

``python3 perfbench/probe.py gateway <trace>``
    Hosts the ``served`` workload's gateway: compiles and registers the
    programs, starts a ``GatewayServer`` with one shard, and prints
    ``{"address", "pid"}`` once a session can be admitted.  With
    ``trace`` = 1 the layer wrappers are installed first, so the shard
    inherits them when it forks.  A line on stdin (or EOF) shuts the
    gateway down.

``python3 perfbench/probe.py cheater``
    Hosts the ``served`` soundness canary: a ``ProverServer`` for the
    first served program whose sessions commit to a shifted proof
    vector but answer with the honest one (the ``substitute-commitment``
    mutation).  Prints ``{"address"}``; a line on stdin (or EOF) shuts
    it down.  ``verify_remote`` must reject every session.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _start_gateway(workloads):
    from repro.argument import GatewayServer, ProgramRegistry

    field = workloads.served_field()
    registry = ProgramRegistry()
    for program in workloads.compile_served(field):
        registry.register(program, workloads.served_config(b"registry"))
    return GatewayServer(registry, **workloads.SERVED_GATEWAY).start()


def _cold_setup(workload: str) -> float:
    """One set-up in this (fresh) process; its wall seconds."""
    import workloads

    start = time.perf_counter()
    if workload == workloads.SERVED:
        server = _start_gateway(workloads)
        seconds = time.perf_counter() - start
        server.close()
        return seconds
    workloads.setup_batch(workload)
    return time.perf_counter() - start


def setups(workload: str) -> None:
    import workloads  # noqa: F401  (imports stay outside the timed set-up)

    # one CPU: a set-up is single-threaded, and migrating between
    # cores only adds noise
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # imported objects stay out of the children's collections, so a
    # child does not copy the parent's heap pages just to scan them
    gc.freeze()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if int(line.strip() or 0) <= 0:
            break
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            try:
                os.write(write_end, repr(_cold_setup(workload)).encode())
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            answer = fh.read()
        os.waitpid(pid, 0)
        if not answer:
            raise RuntimeError(f"set-up of {workload} failed in a child process")
        print(json.dumps({"setup_s": float(answer)}), flush=True)


def gateway(trace: bool) -> None:
    import workloads

    if trace:
        import layers

        layers.install()
    server = _start_gateway(workloads)
    try:
        ready = {"address": list(server.address), "pid": os.getpid()}
        print(json.dumps(ready), flush=True)
        sys.stdin.readline()
    finally:
        server.close()


def cheater() -> None:
    import workloads
    from repro.argument import ProverServer, net
    from repro.crypto.commitment import CommitmentProver

    class SubstitutingProver(net.SessionProver):
        def prove(self, batch_spec, **kwargs):
            payload = super().prove(batch_spec, **kwargs)
            p = self.field.p
            group = self.config.group(self.field)
            for instance, honest in zip(payload, self._provers):
                shifted = [(v + 1) % p for v in honest.u]
                c = CommitmentProver(self.field, group, shifted).commit(self._request)
                instance["commitment"] = [format(c.c1, "x"), format(c.c2, "x")]
            return payload

    # the server looks the session prover up in its own module
    net.SessionProver = SubstitutingProver
    program = workloads.compile_served(workloads.served_field())[0]
    server = ProverServer(program, workloads.served_config(b"cheater")).start()
    try:
        print(json.dumps({"address": list(server.address)}), flush=True)
        sys.stdin.readline()
    finally:
        server.close()


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        setups(argv[1])
        return 0
    if len(argv) == 2 and argv[0] == "gateway":
        gateway(argv[1] == "1")
        return 0
    if argv == ["cheater"]:
        cheater()
        return 0
    print("usage: probe.py setup <workload> | gateway <trace> | cheater", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
