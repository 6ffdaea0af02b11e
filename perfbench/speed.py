"""A clock that reads wall time rescaled to a fixed machine speed.

The benchmark runs on shared virtual machines whose speed changes under
it: on the 2-vCPU reference machine the same round took from 3.2 s to
5.7 s within one minute, and a fixed composition loop switched between
speeds up to 2.5x apart, for a few seconds or for minutes.  CPU time
changes just as wall time does, so the slowdown is not time lost to other
guests but work running slower.

:class:`SpeedClock` samples the machine's momentary speed.  Every
``PERIOD`` seconds a SIGALRM handler times a fixed probe made of the three
kinds of work proficert does: composing permutations stored as tuples,
updating a dict, and big-integer arithmetic.  The probe uses no proficert
code, so a change to the program does not change the probe.  The speed
factor of a sample is the geometric mean, over the three parts, of the
reference time of the part divided by its measured time.  The clock
advances by wall time multiplied by the factor of the latest sample, and
stands still while the probe runs.  A clock reading is therefore in
seconds at the reference speed: the speed at which each part of the probe
takes ``REFERENCE_S``, about the fastest the reference machine ran it.

The three parts were chosen by how well they track the program; a
composition of large permutations tracked worse and was left out
(NOTES.md).
"""

from __future__ import annotations

import math
import random
import signal
from time import perf_counter

PERIOD = 0.01        # seconds between probes
REFERENCE_S = 1e-4   # time of each probe part at the reference speed

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(60), 60)) for _ in range(16)]
_BIG = [_rng.getrandbits(600) | 1 for _ in range(8)]


def _compose():
    x = _PERMS[0]
    for i in range(40):
        images = _PERMS[i & 15]
        x = tuple(images[j] for j in x)
    return x


def _dict():
    d = {}
    s = 0
    for i in range(600):
        k = (i * 2654435761) & 1023
        if k in d:
            s += d[k]
        d[k] = i
    return s


def _bigint():
    x = 1
    for i in range(60):
        x = (x * _BIG[i & 7] + i) % _BIG[(i + 3) & 7]
    return x


PROBE = (_compose, _dict, _bigint)


class SpeedClock:
    """Rescaled seconds; sample the speed between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        # (rescaled reading at `wall`, wall time of the latest probe's end,
        # factor of that probe), replaced as a whole by each probe.
        self._state = (0.0, perf_counter(), 1.0)
        self._running = False
        self._previous = None
        self.probes = 0
        self.log_factors = 0.0

    def start(self):
        self._state = (0.0, perf_counter(), self._sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        # A probe that runs between reading the state and the wall time
        # replaces the state; read again until it is the same object.
        while True:
            state = self._state
            t = perf_counter()
            if state is self._state:
                reading, wall, factor = state
                return reading + (t - wall) * factor

    def mean_factor(self) -> float:
        """Geometric mean of the sampled speed factors."""
        return math.exp(self.log_factors / self.probes) if self.probes else 1.0

    def _sample(self) -> float:
        log_sum = 0.0
        for part in PROBE:
            t0 = perf_counter()
            part()
            log_sum += math.log(REFERENCE_S / (perf_counter() - t0))
        self.probes += 1
        self.log_factors += log_sum / len(PROBE)
        return math.exp(log_sum / len(PROBE))

    def _on_alarm(self, signum, frame):
        begin = perf_counter()
        reading, wall, factor = self._state
        new_factor = self._sample()
        self._state = (reading + (begin - wall) * factor, perf_counter(), new_factor)
        if self._running:
            # One-shot timer, armed again after the probe, so that a slow
            # probe never runs into the next alarm.
            signal.setitimer(signal.ITIMER_REAL, PERIOD)
