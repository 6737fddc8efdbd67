"""Seeded inputs and reference answers for the flucid benchmark.

Nothing here imports flucid: the program under test receives only the
inputs built here, and the references are written from the inputs'
construction, never from the program's own output.

A workload is an endless sequence of rounds.  A round holds every op
class of the workload in fixed proportions, with sizes stratified over
each class's range, so that any whole number of rounds has the same mix
whatever the seed.  The seed only picks the contents: record values,
machine shapes, the exact size inside each stratum and the order of ops
in a round.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"

WORKLOADS = ("casework", "ingest", "eduction")
OP_CLASSES = {
    "casework": ("case_ipl", "fixture_claim", "random_consistent",
                 "random_inconsistent"),
    "ingest": ("doc_small", "doc_medium", "doc_large"),
    "eduction": ("sum_wvr", "sum_wvr_core", "fib", "deep_fby", "ctxset"),
}

ENCODE_NOW = 1_700_000_000          # fixed `now=` so output is byte-stable
ENCODE_TZ = "UTC"
PARTIAL_W = 0.5                     # the presets' partial credibility
RANDOM_HORIZON = 48
BACKTRACE_CAP = 64                  # check_claim's default max_backtraces


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    kind selects the pipeline in ops.py ("program", "claim" or
    "ingest"); payload is all the program receives; expect is the
    reference the result is checked against; records is the op's input
    size (log records for ingest, lines of input text otherwise).
    """

    cls: str
    kind: str
    payload: Tuple[Any, ...]
    expect: Any
    records: int


def _lines(text: str) -> int:
    return text.count("\n") + (not text.endswith("\n"))


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> List[int]:
    """count sizes, one drawn uniformly from each of count equal cells
    of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + int(width * (j + rng.random())) for j in range(count)]


# ---------------------------------------------------------------------------
# casework
# ---------------------------------------------------------------------------

CASES = ("acme", "acme_no_alice", "blackmail")

# Reference facts, mirroring tests/test_evaluator.py and tests/test_era.py.
BLACKMAIL_PATHS = frozenset({
    (("(u)", "(0,o1,o2)"), ("(u,t2)", "(1,u,o2)"), ("(u)", "(2,u,t2)"),
     ("*", "(1,u,t2)")),
    (("(u)", "(0,o1,o2)"), ("d(u,t2)", "(1,u,o2)"), ("*", "(1,u,t2)")),
})
# The only explanation of acme.es within 8 steps: Alice's job and Bob's
# are added, both printed, Bob adds another and it is printed too.
ACME_SHORTEST = (
    ("add_A", "(empty,empty)"), ("add_B", "(A,empty)"), ("take", "(A,B)"),
    ("take", "(A_Deleted,B)"), ("add_B", "(A_Deleted,B_Deleted)"),
    ("take", "(B,B_Deleted)"), ("*", "(B_Deleted,B_Deleted)"))
ACME_MIN_WINDOW = 7
FIXTURE_HORIZONS = (4, 8, 16, 32)


def _fixture_expect(fsm: str, es: str, horizon: int) -> Dict[str, Any]:
    """What check_claim must say for a fixture pair at a horizon."""
    if es == "acme_alice":                      # Alice's claim never holds
        return {"consistent": False, "backtraces": ()}
    if es == "blackmail":                       # exactly Mr. A's two paths
        return {"consistent": True, "backtraces": BLACKMAIL_PATHS}
    if horizon < ACME_MIN_WINDOW:
        return {"consistent": False, "backtraces": ()}
    if horizon <= 8:
        return {"consistent": True, "backtraces": frozenset({ACME_SHORTEST})}
    return {"consistent": True, "contains": (
        "(empty,empty)", "(B_Deleted,B_Deleted)")}


def _read(rel: str) -> str:
    return (TESTS / rel).read_text(encoding="utf-8")


def case_op(name: str) -> Op:
    text = _read("cases/%s.ipl" % name)
    return Op("case_ipl", "program", (text, False), ("case", name),
              _lines(text))


def _fixture_ops() -> List[Op]:
    ops = []
    for fsm, es in (("acme", "acme"), ("acme", "acme_alice"),
                    ("blackmail", "blackmail")):
        fsm_text = _read("fixtures/%s.fsm" % fsm)
        es_text = _read("fixtures/%s.es" % es)
        for h in FIXTURE_HORIZONS:
            ops.append(Op("fixture_claim", "claim", (fsm_text, es_text, h),
                          ("fixture", _fixture_expect(fsm, es, h)),
                          _lines(fsm_text) + _lines(es_text)))
    return ops


GUARDED = "e7"


def random_machine(rng: random.Random, n_states: int, walk: int,
                   consistent: bool, horizon: int) -> Op:
    """A machine whose last state (the trap) is entered only by the
    guarded event, and a statement whose verdict is planted.

    Every state fires at least one unguarded event, so a seeded walk of
    `walk` unguarded steps from s0 always exists and ends in some state
    other than the trap.  The claim "no guarded event, then the final
    state" is consistent for that walk's end and inconsistent for the
    trap, which forces the search to exhaust the horizon.
    """
    states = ["s%d" % i for i in range(n_states)]
    trap = states[-1]
    events = ["e%d" % i for i in range(8)]
    free = [e for e in events if e != GUARDED]
    trans: Dict[Tuple[str, str], str] = {}
    for s in states:
        fired = [e for e in free if rng.random() < 0.35] or [rng.choice(free)]
        for e in fired:
            trans[(e, s)] = rng.choice(states[:-1])
        if rng.random() < 0.3:
            trans[(GUARDED, s)] = (trap if rng.random() < 0.5
                                   else rng.choice(states))
    start = states[0]
    state = start
    for _ in range(walk):
        state = trans[rng.choice([(e, state) for e in free
                                  if (e, state) in trans])]
    target = state if consistent else trap
    fsm_text = "".join("%s %s -> %s\n" % (e, s, t)
                       for (e, s), t in trans.items())
    fsm_text += "property unguarded { deny-events: %s; }\n" % GUARDED
    es_text = (
        "observation anything = $\n"
        "observation at_start = (%s, 1, 0)\n"
        "observation at_end = (%s, 1, 0)\n"
        "observation no_guarded = (unguarded, 0, infinitum)\n"
        "observation claimed_end = (%s, 1, 0)\n"
        "sequence os_claim = no_guarded claimed_end\n"
        "sequence os_final = anything at_end\n"
        "sequence os_origin = at_start anything\n"
        "statement = os_claim os_final os_origin\n"
        % (start, target, target))
    cls = "random_consistent" if consistent else "random_inconsistent"
    expect = ("random", {"consistent": consistent, "start": start,
                         "target": target, "guarded": GUARDED,
                         "transitions": trans, "states": states,
                         "events": events})
    return Op(cls, "claim", (fsm_text, es_text, horizon), expect,
              _lines(fsm_text) + _lines(es_text))


def _casework_round(rng: random.Random) -> List[Op]:
    ops = [case_op(c) for c in CASES] + _fixture_ops()
    for consistent in (True, False):
        for n in _strata(rng, 4, 20, 201):
            ops.append(random_machine(rng, n, rng.randint(4, 24),
                                      consistent, RANDOM_HORIZON))
    return ops


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

# Mirrors encoders.PRESETS: field -> type, in schema order.
PRESET_FIELDS = {
    "arp": (("ipaddr", "text"), ("mac", "mac")),
    "switchlog": (("ts", "timestamp"), ("port", "text"), ("mac", "mac"),
                  ("message", "text")),
    "dhcp": (("ts", "timestamp"), ("ipaddr", "text"), ("mac", "mac"),
             ("hostname", "hostname")),
    "netflow": (("ts", "timestamp"), ("srcip", "text"), ("dstip", "text"),
                ("srcport", "int"), ("dstport", "int"), ("proto", "text"),
                ("bytes", "int")),
    "scan": (("host", "hostname"), ("port", "int"), ("state", "text"),
             ("service", "text")),
}
MESSAGES = ("link up", "link down", "port security violation",
            "learned address", "aged out")
MALFORMED = {"mac": "zz:00:11:22:33:44", "hostname": "bad host!",
             "int": "n/a", "timestamp": "not a time"}


def _ip(rng: random.Random) -> str:
    return "10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256),
                            rng.randrange(1, 255))


def _mac(rng: random.Random) -> str:
    hexes = "%012x" % rng.getrandbits(48)
    style = rng.randrange(4)
    if style == 0:
        return ":".join(hexes[i:i + 2] for i in range(0, 12, 2))
    if style == 1:
        return "-".join(hexes[i:i + 2] for i in range(0, 12, 2)).upper()
    if style == 2:
        return ".".join(hexes[i:i + 4] for i in range(0, 12, 4))
    return hexes


def _hostname(rng: random.Random) -> str:
    name = "host-%d.corp.example" % rng.randrange(5000)
    return name.upper() + "." if rng.random() < 0.2 else name


def _field(rng: random.Random, name: str, ftype: str, epoch: int) -> Any:
    if ftype == "timestamp":
        if rng.random() < 0.5:
            return epoch
        return datetime.fromtimestamp(epoch, timezone.utc).strftime(
            "%Y-%m-%d %H:%M:%S")
    if ftype == "mac":
        return _mac(rng)
    if ftype == "hostname":
        return _hostname(rng)
    if ftype == "int":
        value = rng.randrange(1, 65536)
        return value if rng.random() < 0.5 else str(value)
    if name in ("ipaddr", "srcip", "dstip"):
        return _ip(rng)
    if name == "port":
        return "Gi1/0/%d" % rng.randrange(1, 49)
    if name == "message":
        return rng.choice(MESSAGES)
    if name == "proto":
        return rng.choice(("tcp", "udp", "icmp"))
    if name == "state":
        return rng.choice(("open", "closed", "filtered"))
    return rng.choice(("http", "ssh", "smtp", "dns", "ntp"))


def document(rng: random.Random, preset: str, n: int, cls: str) -> Op:
    """n records for a preset, about 5% with one malformed typed field.

    The reference is one observation per record, weight PARTIAL_W exactly
    on the malformed records, and the t slot carrying the record's epoch
    where the preset has a timestamp that is well formed.
    """
    fields = PRESET_FIELDS[preset]
    typed = [(f, t) for f, t in fields if t != "text"]
    bad = set(rng.sample(range(n), round(n * 0.05)))
    epoch = 1_600_000_000 + rng.randrange(10_000_000)
    records, expect = [], []
    for i in range(n):
        epoch += rng.randint(1, 30)
        rec = {f: _field(rng, f, t, epoch) for f, t in fields}
        broken = None
        if i in bad:
            broken, btype = rng.choice(typed)
            rec[broken] = MALFORMED[btype]
        has_ts = "ts" in rec and broken != "ts"
        records.append(rec)
        expect.append((i in bad, epoch if has_ts else None))
    name = "%s_log" % preset
    return Op(cls, "ingest", (records, preset, name), ("doc", expect), n)


def _ingest_round(rng: random.Random) -> List[Op]:
    presets = sorted(PRESET_FIELDS)
    ops = []
    small = presets * 4
    rng.shuffle(small)
    for preset, n in zip(small, _strata(rng, 20, 40, 101)):
        ops.append(document(rng, preset, n, "doc_small"))
    medium = list(presets)
    rng.shuffle(medium)
    for preset, n in zip(medium, _strata(rng, 5, 200, 401)):
        ops.append(document(rng, preset, n, "doc_medium"))
    ops.append(document(rng, "dhcp", rng.randint(1800, 2000), "doc_large"))
    return ops


# ---------------------------------------------------------------------------
# eduction
# ---------------------------------------------------------------------------

SUM_WVR = """S @.d %d
where
  S = X fby.d (S + next.d X);
  X = (#.d * 2) wvr.d (#.d %% 2 == 0);
end
"""
FIB = """fib(%d)
where
  fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2) fi;
end
"""
DEEP_FBY = """N @.d %d
where
  N = 42 fby.d (N + 1);
end
"""
CTXSET = """x @ {%s}
where
  x = S @.d (#.d * %d);
  S = 0 fby.d (S + #.d);
end
"""
CTX_MEMBERS = 8


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def program(cls: str, size: int) -> Op:
    """An eduction op and its closed-form value."""
    if cls in ("sum_wvr", "sum_wvr_core"):
        # X_j = 4j, so S @ n = sum of 4j for j <= n
        text, value = SUM_WVR % size, 2 * size * (size + 1)
    elif cls == "fib":
        text, value = FIB % size, _fib(size)
    elif cls == "deep_fby":
        text, value = DEEP_FBY % size, 42 + size
    else:
        # S_i = i(i-1)/2, read at i = j * size for each member [d:j]
        members = ", ".join("[d:%d]" % j for j in range(1, CTX_MEMBERS + 1))
        text = CTXSET % (members, size)
        value = tuple(j * size * (j * size - 1) // 2
                      for j in range(1, CTX_MEMBERS + 1))
    return Op(cls, "program", (text, cls == "sum_wvr_core"), ("value", value),
              _lines(text))


def _eduction_round(rng: random.Random) -> List[Op]:
    wvr = _strata(rng, 8, 50, 201)
    ops = [program("sum_wvr", n) for n in wvr]
    ops += [program("sum_wvr_core", n) for n in wvr]
    ops += [program("fib", k) for k in range(10, 16)]
    # indices from 999 up exceed today's demand-depth limit; they stay
    # in so that the defect shows as failed ops
    ops += [program("deep_fby", i) for i in _strata(rng, 16, 200, 1201)]
    ops += [program("ctxset", m) for m in _strata(rng, 4, 50, 111)]
    return ops


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

ROUND_BUILDERS = {"casework": _casework_round, "ingest": _ingest_round,
                  "eduction": _eduction_round}


def rounds(workload: str, seed: int,
           digests: Optional[List[str]] = None) -> Iterator[List[Op]]:
    """Rounds 0, 1, 2, ... of a workload, each seeded on its own and built
    only when the run reaches it, so that a run holds one round's inputs
    at a time.  Each round's digest is appended to digests."""
    for k in itertools.count():
        rng = random.Random("%s:%d:%d" % (workload, seed, k))
        ops = ROUND_BUILDERS[workload](rng)
        rng.shuffle(ops)
        if digests is not None:
            digests.append(digest(ops))
        yield ops
        del ops


def digest(ops: List[Op]) -> str:
    """sha256 of every op's class and payload, in run order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.cls, op.payload], sort_keys=True,
                            default=repr).encode("utf-8"))
    return h.hexdigest()


def warmup_op(workload: str) -> Op:
    """The fixed, seed-independent op that set-up runs once."""
    if workload == "casework":
        return case_op("acme")
    if workload == "ingest":
        return document(random.Random("warmup"), "dhcp", 50, "doc_small")
    return program("sum_wvr_core", 50)


def tiny_rounds(workload: str) -> List[List[Op]]:
    """One op of every class at a small size, for the self-test."""
    rng = random.Random("tiny:%s" % workload)
    if workload == "casework":
        ops = [case_op(c) for c in CASES] + _fixture_ops()
        for n in (3, 4, 5):
            ops.append(random_machine(rng, n, 2, True, 4))
            ops.append(random_machine(rng, n, 2, False, 4))
        ops.append(random_machine(rng, 30, 6, True, RANDOM_HORIZON))
        ops.append(random_machine(rng, 30, 6, False, RANDOM_HORIZON))
    elif workload == "ingest":
        ops = [document(rng, p, 20, "doc_small")
               for p in sorted(PRESET_FIELDS)]
        ops += [document(rng, "netflow", 40, "doc_medium"),
                document(rng, "dhcp", 80, "doc_large")]
    else:
        ops = [program("sum_wvr", 20), program("sum_wvr_core", 20),
               program("fib", 8), program("deep_fby", 300),
               program("deep_fby", 1100), program("ctxset", 10)]
    return [ops]
