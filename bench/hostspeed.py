"""The host's current speed, read from a fixed pure-Python loop.

On a shared 2-vCPU Linux VM, the same flucid op took from 0.20 to 0.44 s
within one minute, and its process CPU time moved with its wall time:
the CPU itself ran slower, no time was stolen from the process.  This
loop slows down with it.  In a one-minute test that ran the loop before
each op, the op's time over the loop's time stayed within 3% in every
six-second window while the op's time alone moved by 1.7x.  The
end-to-end times are therefore reported at a nominal host speed, the one
at which a pass of the loop takes NOMINAL_S.

The loop uses only the standard library, so no change to flucid moves
it.  A change of Python version or of hardware does.
"""

from __future__ import annotations

import random
import time

_TEXT = "".join(random.Random("hostspeed").choice("abc de(f)=;12\n")
                for _ in range(20000))
NOMINAL_S = 0.005


def reference() -> float:
    """Seconds that one pass of the loop takes now: a scan that counts
    letters in a dict and collects (char, offset) pairs, much like a
    hand-written lexer."""
    t0 = time.perf_counter()
    out, seen = [], {}
    for i, ch in enumerate(_TEXT):
        if ch.isalpha():
            seen[ch] = seen.get(ch, 0) + 1
        out.append((ch, i))
    return time.perf_counter() - t0


def at_nominal(seconds: float, ref: float) -> float:
    """seconds, measured when the loop took ref, at the nominal speed."""
    return seconds * NOMINAL_S / ref
