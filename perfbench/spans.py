"""In-memory span recorder that wraps qmit functions from outside, and the
host-speed calibration that the benchmark's timings are divided by.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
span that was open when this one started, or -1.  Spans are kept in a list
until the run ends, then folded into per-name totals: inclusive time, self
time (inclusive minus the time of direct child spans) and call count.

Wrapping patches module attributes in the current process only.  A function
imported by name into several qmit modules (``from .losses import
_fb_pair_forward``) is replaced in every module that holds the same object,
so calls through any of those names are seen.  ``restore`` puts the
originals back.  The recorder is single-threaded: the benchmark runs qmit
with ``QMIT_THREADS=1``.

Calibration.  The speed of the shared host this benchmark was built on
switches between two levels (a fixed 64x64 ``eigh`` took 0.55 ms or
0.88 ms, in phases lasting seconds), which made raw per-run medians spread
by 16-19 %.  So while it records, the recorder runs a fixed numpy kernel
twice from an interval timer (``SIGALRM`` every ``CALIBRATION_GAP_S`` of
wall time), and ``clock()`` maps wall time to *reference time*: each
stretch between two calibrations is scaled by ``CALIBRATION_REF_S`` over
the kernel's measured time around it, and the calibrations themselves
count as zero.  A duration in reference time is what the work would have
taken with the kernel running at its reference speed.  The timer knows
nothing of qmit, so every version of qmit is calibrated the same way.
"""

from __future__ import annotations

import functools
import importlib
import signal
import sys
import time
from collections import defaultdict

import numpy as np

CALIBRATION_GAP_S = 0.1
# Time of one warm ``Calibration.run`` on the build host in its fast phase
# (5th percentile over 20 s; Intel Xeon, 2 vCPUs, numpy 2.4.6, OpenBLAS
# 0.3.31, one BLAS thread).
CALIBRATION_REF_S = 3.1e-3


class Calibration:
    """A fixed mix of the kinds of numpy work qmit does: small Hermitian
    eigendecompositions and batched small matmuls, as at n=4, and a
    Pauli-style gather on two 256x256 complex matrices, as at n=8.  The
    correction it gives is not exact for every kind of work: see the
    README, "Reference seconds".
    """

    def __init__(self):
        rng = np.random.default_rng(20240601)
        h = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.herm = h + h.conj().T
        self.batch = rng.standard_normal((8, 16, 16)) + 1j * rng.standard_normal((8, 16, 16))
        self.wide = rng.standard_normal((2, 256, 256)) + 1j * rng.standard_normal((2, 256, 256))
        self.perm = rng.permutation(256)

    def run(self) -> None:
        np.linalg.eigh(self.herm)
        for _ in range(6):
            self.batch @ self.batch
        self.wide[..., self.perm[:, None], self.perm[None, :]] * 0.5


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calibrations: list[tuple[float, float, float]] = []
        self._calibration = Calibration()
        self._calibrating = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def calibrate(self) -> None:
        # A timer signal that arrives during a calibration is dropped, so the
        # calibrations never overlap.
        if self._calibrating:
            return
        self._calibrating = True
        # The first pass refills the caches the work in between evicted; only
        # the second is timed, so the speed reads the core, not the cache state.
        begin = time.perf_counter()
        self._calibration.run()
        start = time.perf_counter()
        self._calibration.run()
        end = time.perf_counter()
        self.calibrations.append((begin, start, end))
        self._calibrating = False

    def start_timer(self) -> None:
        """Calibrate now and then every ``CALIBRATION_GAP_S`` until ``stop_timer``.

        The handler runs in the main thread between Python bytecodes, so a
        calibration never splits a numpy call; during a long one the timer
        signals coalesce into one calibration after it.
        """
        self.calibrate()
        signal.signal(signal.SIGALRM, lambda _sig, _frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_GAP_S, CALIBRATION_GAP_S)

    def stop_timer(self) -> None:
        """Stop the timer and calibrate once more, after the last event."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def _wrapper(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal counter
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if counter is not None:
                try:
                    counter(self, args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    # The function's arguments no longer have the shape the
                    # counter reads: stop counting rather than fail the run.
                    print(f"perfbench: not counting {name}: {exc!r}", file=sys.stderr)
                    counter = None
            return result

        return wrapper

    def install(self, target: str, name: str, counter=None) -> bool:
        """Wrap ``target`` (``"module:attr"`` or ``"module:Class.attr"``) in a
        span called ``name``; ``counter(recorder, args, result)`` runs after
        each call, until it first fails.

        A target that does not exist is skipped with a note on stderr and
        ``False`` is returned; its metrics then read 0.
        """
        module_name, attr_path = target.split(":")
        *owner_path, attr = attr_path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            print(f"perfbench: {target} not found, not traced", file=sys.stderr)
            return False
        wrapper = self._wrapper(name, original, counter)
        holders = [owner]
        if not owner_path:
            package = module_name.split(".")[0]
            holders = [
                mod for key, mod in list(sys.modules.items())
                if (key == package or key.startswith(package + "."))
                and mod is not None and vars(mod).get(attr) is original
            ]
        for holder in holders:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)
        return True

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def clock(self):
        """Map ``perf_counter`` readings to reference seconds.

        Needs a calibration before and after the events it maps.  Between
        calibrations ``i`` and ``i + 1`` time runs at the mean of their
        speed factors ``CALIBRATION_REF_S / duration``; during a
        calibration it stands still.
        """
        cal = np.asarray(self.calibrations)
        factor = CALIBRATION_REF_S / (cal[:, 2] - cal[:, 1])
        stretch = (cal[1:, 0] - cal[:-1, 2]) * 0.5 * (factor[1:] + factor[:-1])
        at_end = np.concatenate([[0.0], np.cumsum(stretch)])
        xs = cal[:, [0, 2]].ravel()
        ys = np.repeat(at_end, 2)
        return lambda t: np.interp(t, xs, ys)

    def speed(self) -> float:
        """Median host speed relative to the reference (1 = fast phase)."""
        cal = np.asarray(self.calibrations)
        return float(np.median(CALIBRATION_REF_S / (cal[:, 2] - cal[:, 1])))

    def totals(self, clock) -> dict[str, dict[str, float]]:
        """Per span name: ``incl_s``, ``self_s`` and ``calls``, timed by ``clock``."""
        times = np.asarray([(start, end) for _name, start, end, _parent in self.spans])
        durations = (clock(times[:, 1]) - clock(times[:, 0])).tolist() if self.spans else []
        child = [0.0] * len(self.spans)
        for (_name, _start, _end, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"incl_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for (name, _start, _end, _parent), dur, inner in zip(self.spans, durations, child):
            entry = out[name]
            entry["incl_s"] += dur
            entry["self_s"] += dur - inner
            entry["calls"] += 1
        return dict(out)

    def within(self, name: str, ancestor: str) -> bool:
        """Whether some span called ``name`` ran inside a span called ``ancestor``."""
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
        return False

    def intervals(self, name: str, clock) -> list[tuple[float, float]]:
        """``(start, end)`` of every span called ``name`` by ``clock``, in start order."""
        times = np.asarray([(s[1], s[2]) for s in self.spans if s[0] == name]).reshape(-1, 2)
        return [(float(a), float(b)) for a, b in clock(times)]
