"""Host-speed calibration kernel for the benchmark's normalized timings.

Every timed metric is reported in reference-host seconds:
``raw * C_REF / C_run``, where ``C_run`` is the median time of
:func:`kernel` measured during the same run and ``C_REF`` is a constant
fixed below.  The kernel mixes the three kinds of work the prover and
verifier spend their time on:

* 32-bit add-rotate-xor rounds (the ChaCha PRG),
* 64-bit modular multiply-accumulate over lists (field arithmetic),
* 512-bit modular exponentiation (ElGamal).

It deliberately imports nothing from ``repro``: a change to the program
must not be able to change the yardstick it is measured with.  The
benchmark runs it in a helper process (``python3 perfbench/calib.py``,
which serves requests on stdin), and only while the workload is idle,
so the workload's heap and threads do not leak into the measurement.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: median kernel seconds on the reference host (a 2-core x86-64 VM
#: running CPython 3.11).  Fixed once; changing it rescales every
#: normalized timing, so it never changes together with the program.
C_REF = 0.0400

_MASK = 0xFFFFFFFF
_P64 = 2**64 - 2**32 + 1
_P512 = 2**512 - 569  # prime
_G = 7


def _arx(rounds: int) -> int:
    a, b, c, d = 0x61707865, 0x3320646E, 0x79622D32, 0x6B206574
    for _ in range(rounds):
        a = (a + b) & _MASK
        d ^= a
        d = ((d << 16) & _MASK) | (d >> 16)
        c = (c + d) & _MASK
        b ^= c
        b = ((b << 12) & _MASK) | (b >> 20)
        a = (a + b) & _MASK
        d ^= a
        d = ((d << 8) & _MASK) | (d >> 24)
        c = (c + d) & _MASK
        b ^= c
        b = ((b << 7) & _MASK) | (b >> 25)
    return a ^ b ^ c ^ d


def _field(n: int, passes: int) -> int:
    xs = [(i * 0x9E3779B97F4A7C15) % _P64 for i in range(1, n + 1)]
    ys = [(i * 0xC2B2AE3D27D4EB4F) % _P64 for i in range(1, n + 1)]
    acc = 0
    for _ in range(passes):
        xs = [x * y % _P64 for x, y in zip(xs, ys)]
        acc = (acc + sum(x * y for x, y in zip(xs, ys))) % _P64
    return acc


def _pow(count: int) -> int:
    acc = 1
    base = _G
    for i in range(count):
        base = pow(base, (1 << 511) + 2 * i + 1, _P512)
        acc = acc * base % _P512
    return acc


def kernel() -> float:
    """Run the mixed kernel once; return its wall seconds."""
    start = time.perf_counter()
    _arx(12000)
    _field(1024, 24)
    _pow(18)
    return time.perf_counter() - start


def serve(stdin=sys.stdin, stdout=sys.stdout) -> None:
    """Helper-process loop: each input line ``N`` runs the kernel N times
    and answers one JSON list of N durations; EOF or ``0`` ends it.

    Successive runs rotate over the CPUs this process may use (the
    workload's), because on a shared host each core drifts on its own.
    """
    cpus = sorted(os.sched_getaffinity(0))
    runs = 0
    for line in stdin:
        reps = int(line.strip() or 0)
        if reps <= 0:
            break
        samples = []
        for _ in range(reps):
            os.sched_setaffinity(0, {cpus[runs % len(cpus)]})
            runs += 1
            samples.append(kernel())
        stdout.write(json.dumps(samples) + "\n")
        stdout.flush()


if __name__ == "__main__":
    serve()
