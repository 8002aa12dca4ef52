"""The three workloads, their timed loops and their traced rounds.

Each workload is a closed loop with one client: the next operation
starts when the previous one, its reference check and a calibration
sample are done.  Operations fall into two classes, `a` and `b`:

    paper    a: verify-paper --bound 3 --atoms 2   b: --bound 4 --atoms 3
    derived  a: the literal derived reading       b: the charitable one
    queries  a: stops at its first countermodel   b: valid, scans every model

`paper` and `derived` alternate the classes and start a fresh
interpreter per operation; `queries` sends its stream, one query at a
time, to one fresh interpreter that serves the whole run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import select
import subprocess
import sys
import time
from collections import Counter, defaultdict

import checks
import gen
import stats

CHILD_TIMEOUT_S = 150
QUERY_TIMEOUT_S = 30
SETUP_SAMPLES = 11
TRACE_QUERIES = 240  # one whole period of the query schedule
MAX_PROBLEMS = 20


class Context:
    """The checkout, and how to start a fresh interpreter in it."""

    def __init__(self, root: str):
        self.root = root
        self.build = os.path.join(root, ".bench_build")
        self.drive = os.path.join(os.path.dirname(os.path.abspath(__file__)), "drive.py")
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((os.path.join(root, "src"), os.path.dirname(self.drive))),
            PYTHONHASHSEED="0",
        )

    def spawn(self, args: list[str]) -> dict:
        """Run `python -S drive.py ARGS` to completion: exit code, output,
        wall seconds.  -S skips site-packages, which the program does not
        use, so that their start-up cost does not dilute the program's."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-S", self.drive, *args], cwd=self.root, env=self.env,
                capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = -1, b"", b"timed out"
        return {"code": code, "out": out, "err": err, "wall": time.perf_counter() - start}

    def spawn_measured(self, mode: str, op: int, trace: bool, args: list[str]) -> dict:
        """A `derived` or `cli` child; adds what it wrote to its side file."""
        side_file = os.path.join(self.build, f"side-{os.getpid()}.json")
        child = self.spawn([mode, side_file, str(op), str(int(trace)), *args])
        child["side"] = {"calibration": [], "busy_s": 0.0, "maxrss_kb": 0}
        if os.path.exists(side_file):
            with open(side_file, encoding="utf-8") as handle:
                child["side"] = json.load(handle)
            os.remove(side_file)
        return child


class QueryServer:
    """The fresh interpreter `drive.py queries`, which parses and decides
    the queries it is sent, one at a time.  A context manager; leaving it
    ends the interpreter and waits for it."""

    def __init__(self, ctx: Context):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", ctx.drive, "queries"], cwd=ctx.root, env=ctx.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.maxrss_kb = 0
        self._read()  # the program is imported

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            if exc[0] is None:
                self.maxrss_kb = self._read()["maxrss_kb"]
            self.proc.wait(timeout=QUERY_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        """One reply line.  Every request has exactly one, so nothing is
        left buffered between replies and `select` sees the next one."""
        ready, _, _ = select.select([self.proc.stdout], [], [], QUERY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"query server gave no reply within {QUERY_TIMEOUT_S} s")
        return json.loads(line)


class Recorder:
    """Operations with their classes, raw times and calibration samples,
    and the outcome of their checks."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.maxrss_kb = 0  # the largest of the program's interpreters

    def calibrate(self, rounds: int = stats.CALIBRATION_ROUNDS) -> None:
        self.calibration.append(stats.calibrate(rounds))

    def record(self, cls: str, raw_s: float, problems: list[str], side: dict | None = None) -> None:
        side = side or {}
        self.ops.append({
            "cls": cls,
            "raw_s": raw_s,
            "busy_s": side.get("busy_s", 0.0),
            "samples": side.get("calibration", []),
            "after": len(self.calibration),  # calibrations taken before this op
        })
        self.attempted += 1
        self.maxrss_kb = max(self.maxrss_kb, side.get("maxrss_kb", 0))
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(MAX_PROBLEMS - len(self.problems), 0)])

    def check(self, cls: str, raw_s: float, side: dict | None, check, *args) -> None:
        """Record an operation whose output `check(*args)` judges; a check
        that raises counts the operation as failed."""
        try:
            problems = check(*args)
        except Exception as exc:  # malformed output must not stop the run
            problems = [f"check raised {exc!r}"]
        self.record(cls, raw_s, problems, side)

    def seconds(self, op: dict, scaled: bool = True) -> float:
        """An operation's time without the in-operation samples' own time;
        scaled by the calibration samples taken just before, during and
        just after it."""
        seconds = op["raw_s"] - op["busy_s"]
        if scaled:
            k = op["after"]
            seconds *= stats.scale(self.calibration[max(k - 1, 0):k + 1] + op["samples"])
        return seconds

    def times(self, scaled: bool = True) -> dict[str, list[float]]:
        """Seconds per operation, by class."""
        out: dict[str, list[float]] = defaultdict(list)
        for op in self.ops:
            out[op["cls"]].append(self.seconds(op, scaled))
        return out


def _class(op: int) -> str:
    return "ab"[op % 2]


def _child_problems(child: dict) -> list[str]:
    if child["code"] == 0:
        return []
    return [f"exit code {child['code']}: {child['err'].decode(errors='replace')[-300:]}"]


# --- set-up ------------------------------------------------------------------

def measure_setup(ctx: Context, workload: str, seed: int) -> tuple[Recorder, list[float]]:
    """Fresh interpreters that import twosquares.cli and build the
    workload's first input, deciding nothing.  The first one also fills
    the bytecode cache and is not counted.  Returns the samples (class
    "setup") and the import times the children measured."""
    rec = Recorder()
    imports = []
    for k in range(SETUP_SAMPLES + 1):
        rec.calibrate()
        child = ctx.spawn(["setup", workload, str(seed)])
        if child["code"] != 0:
            raise RuntimeError(f"set-up failed: {child['err'].decode(errors='replace')}")
        if k:
            side = json.loads(child["out"])
            rec.record("setup", child["wall"], [], side)
            imports.append(side["import_s"])
    rec.calibrate()
    return rec, imports


# --- operations --------------------------------------------------------------

def paper_op(ctx, rec, first: dict, op: int, trace: bool = False) -> dict:
    child = ctx.spawn_measured("cli", op, trace, ["--", *gen.paper_args(op)])
    cls = _class(op)
    rec.check(cls, child["wall"], child["side"], checks.check_paper,
              child["code"], child["out"], first.get(cls))
    first.setdefault(cls, child["out"])
    return child


def derived_op(ctx, rec, expected: dict, seed: int, op: int, trace: bool = False) -> dict:
    reading, formulas = gen.derived_inputs(expected, seed, op)
    texts = json.dumps([gen.render(f) for f, _ in formulas])
    child = ctx.spawn_measured("derived", op, trace, [reading, texts])
    problems = _child_problems(child)
    if problems:
        rec.record(_class(op), child["wall"], problems, child["side"])
    else:
        rec.check(_class(op), child["wall"], child["side"], checks.check_derived,
                  reading, formulas, json.loads(child["out"]), expected)
    return child


def query_class(query: dict) -> str:
    """a: stops at a countermodel; b: valid, so every model is scanned;
    c: a pair classification, in neither median."""
    if query["kind"] == "classify":
        return "c"
    return "b" if query["min_falsifier"] is None else "a"


def query_op(rec: Recorder, server: QueryServer, query: dict, op: int = 0) -> None:
    cls = query_class(query)
    sent = {key: query[key] for key in ("kind", "family", "texts", "bound")}
    reply = server.ask({"query": sent, "op": op})
    if "error" in reply:
        rec.record(cls, reply["s"], [f"query raised {reply['error']}"])
    else:
        rec.check(cls, reply["s"], None, checks.check_query, query, reply["result"])


def query_properties(queries: list[dict]) -> dict:
    """The input properties the queries workload depends on; the sizes
    are the shares of smallest-countermodel sizes among invalid ones."""
    decided = [q for q in queries if q["kind"] == "decide"]
    mix = Counter(f"{q['family']}/{q['kind']}/{q['terms']}terms/bound{q['bound']}" for q in queries)
    sizes = defaultdict(list)
    for q in decided:
        if q["min_falsifier"] is not None:
            sizes[f"{q['family']}/{q['terms']}terms"].append(q["min_falsifier"])
    return {
        "queries": len(queries),
        "valid_share": sum(q["min_falsifier"] is None for q in decided) / max(len(decided), 1),
        "classify_share": 1 - len(decided) / max(len(queries), 1),
        "mix": dict(sorted(mix.items())),
        "countermodel_sizes": {key: gen.size_mix(sizes[key]) for key in sorted(sizes)},
    }


# --- timed loops ---------------------------------------------------------------

def process_loop(rec: Recorder, seconds: float, do_op) -> None:
    """Run operations in a/b pairs until another pair would overrun."""
    start = time.perf_counter()
    last: dict[str, float] = {}
    for op in itertools.count():
        if op % 2 == 0 and last:
            if time.perf_counter() - start + last["a"] + last["b"] > seconds:
                break
        rec.calibrate()
        last[_class(op)] = do_op(op)["wall"]
    rec.calibrate()


def run_timed(ctx: Context, rec: Recorder, workload: str, seed: int, seconds: float) -> dict:
    """The untraced run; returns the workload's input properties."""
    if workload == "paper":
        first: dict = {}
        process_loop(rec, seconds, lambda op: paper_op(ctx, rec, first, op))
        return {}
    if workload == "derived":
        expected = gen.load_expected()
        process_loop(rec, seconds, lambda op: derived_op(ctx, rec, expected, seed, op))
        return {"type_set_images": expected["images"]}
    seen = []
    with QueryServer(ctx) as server:
        start = next_calibration = time.perf_counter()
        for query in gen.query_stream(seed):
            now = time.perf_counter()
            if now - start >= seconds:
                break
            if now >= next_calibration:
                rec.calibrate(stats.SAMPLE_ROUNDS)
                next_calibration = time.perf_counter() + stats.SAMPLE_EVERY_S
            query_op(rec, server, query)
            seen.append(query)
        rec.calibrate(stats.SAMPLE_ROUNDS)
    rec.maxrss_kb = server.maxrss_kb
    return query_properties(seen)


# --- traced rounds -------------------------------------------------------------

def _merge(dumps: list[dict]) -> dict:
    merged = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(), "items": Counter()}
    spans = []
    for k, dump in enumerate(dumps):
        for key in merged:
            merged[key].update(dump[key])
        spans.extend([*span, k] for span in dump["spans"])
    merged["spans"] = spans
    return merged


def _round(ctx, rec, workload, seed, inputs, traced: bool) -> list[dict]:
    """One fixed set of operations; returns one tracer dump per process
    when traced.  `inputs` holds the queries, the expected file and the
    first report per class, which every later report, traced or not,
    must equal byte for byte."""
    if workload == "queries":
        server = inputs["server"]
        if traced:
            server.ask({"trace": True})
        for op, query in enumerate(inputs["queries"]):
            query_op(rec, server, query, op)
        return [server.ask({"trace": False})] if traced else []
    dumps = []
    for op in range(2):
        rec.calibrate()
        if workload == "paper":
            child = paper_op(ctx, rec, inputs["first"], op, traced)
        else:
            child = derived_op(ctx, rec, inputs["expected"], seed, op, traced)
        if traced and "trace" in child["side"]:
            dumps.append(child["side"]["trace"])
    return dumps


def run_traced(ctx: Context, rec: Recorder, workload: str, seed: int, seconds: float) -> dict:
    """Rounds of the same operations, each run untraced and then traced,
    repeated while time remains, and at least twice, so that the work
    counters of two rounds can be compared.  Returns one entry per round."""
    queries = list(itertools.islice(gen.query_stream(seed), TRACE_QUERIES))
    inputs = {"queries": queries, "expected": gen.load_expected(), "first": {}}
    with contextlib.ExitStack() as stack:
        if workload == "queries":
            inputs["server"] = stack.enter_context(QueryServer(ctx))
        rounds = _rounds(ctx, rec, workload, seed, inputs, seconds)
    return {"rounds": rounds, "properties": query_properties(queries) if workload == "queries" else {}}


def _rounds(ctx, rec, workload, seed, inputs, seconds: float) -> list[dict]:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start + rounds[-1]["round_s"] <= seconds:
        began = time.perf_counter()
        first_op = len(rec.ops)
        _round(ctx, rec, workload, seed, inputs, False)
        half = len(rec.ops)
        dumps = _round(ctx, rec, workload, seed, inputs, True)
        rec.calibrate()
        rounds.append({
            "untraced_s": sum(rec.seconds(op) for op in rec.ops[first_op:half]),
            "traced_s": sum(rec.seconds(op) for op in rec.ops[half:]),
            "trace": _merge(dumps),
            "round_s": time.perf_counter() - began,
        })
    return rounds
