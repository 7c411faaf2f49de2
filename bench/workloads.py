"""The three workloads, their correctness checks and their metrics.

Every workload is one caller in a closed loop: the next request goes out
when the previous one has returned, with no threads.  A run repeats whole
passes over its corpus (whole rounds, for `cli`) until `seconds` have
passed, so every run measures the same mix of requests.

Untraced runs report the end-to-end metrics, with every time normalised
to the host's speed (speed.py).  Traced runs alternate untraced and
traced passes; the traced ones record spans around each call into the
package, and the per-layer metrics come from those spans and from the
fixed probes in layers.py.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import corpus
import layers
from reference import (is_valid_solution, parse_cells, primes_text,
                       solve_reference)
from spans import Tracer
from speed import NOMINAL_PROCESS_S, SpeedGauge, process_task

SETUP_REPEATS = 7
# Golden outcomes of the published and blank boards, frozen from the
# program when the benchmark was introduced:
# (solutions, trials, passes, truncated, root event, sha256 prefix of the
# first solution in generic format).
GOLDEN = {
    "blank4": (288, 568, 929, False, "exhausted-by-search",
               "a3fe5c9ab087b2ed"),
    "classic": (1, 0, 5, False, "solved", "d0742c52308678a8"),
    "inkala": (1, 3598, 5563, False, "exhausted-by-search",
               "7130759b4813ff62"),
    "hard1": (1, 674, 801, False, "exhausted-by-search", "400c8acb0efeda38"),
    "blank16": (1, 191, 228, True, "exhausted-by-search", "09c2b86b75b0ce5b"),
}
CLI_DEADLINE_S = 60.0         # safety net for requests expected to finish
TAIL_DEADLINE_S = 1.0         # fixed budget of the two unbounded tails


class Timed(NamedTuple):
    """One untraced request that ended before its deadline."""

    start: float
    seconds: float
    ok: bool
    solutions: int
    puzzle: bool              # counts in request_ms_* and the rates
    fixed: bool               # counts in fixed_case_ms


@dataclass
class Tally:
    """Outcomes and timings of one run."""

    attempted: int = 0
    failed: int = 0           # wrong output, crash, or unexpected timeout
    timeouts: int = 0         # tails that hit their deadline
    timed: list[Timed] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0




def fresh_import():
    """Import the package anew, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "bitsudoku" or n.startswith("bitsudoku.")]:
        del sys.modules[name]
    return importlib.import_module("bitsudoku")


def timed_setup(step: Callable[[], object], gauge: SpeedGauge
                ) -> tuple[object, float]:
    """Run set-up SETUP_REPEATS times; the last result and the median
    normalised time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.sample(force=True)
        t0 = perf_counter()
        out = step()
        dt = perf_counter() - t0
        gauge.sample(force=True)
        times.append(gauge.scale(t0, dt))
    return out, statistics.median(times)


def end_to_end(tally: Tally, gauge: SpeedGauge, setup_s: float
               ) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw figures behind them."""
    puzzles = [t for t in tally.timed if t.puzzle]
    lat = [gauge.scale(t.start, t.seconds) for t in puzzles if t.ok]
    busy = sum(gauge.scale(t.start, t.seconds) for t in puzzles)
    fixed = [gauge.scale(t.start, t.seconds) for t in tally.timed
             if t.ok and t.fixed]
    metrics = {
        "setup_s": setup_s,
        "success_rate": ((tally.attempted - tally.failed - tally.timeouts)
                         / tally.attempted),
        "peak_rss_mb": tally.peak_rss_mb,
        "puzzles_per_s": len(lat) / busy,
        "solutions_per_s": sum(t.solutions for t in puzzles if t.ok) / busy,
        "request_ms_p50": statistics.median(lat) * 1e3,
        "request_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3,
        "fixed_case_ms": statistics.median(fixed) * 1e3,
    }
    info = {"samples": len(lat), "fixed_case_samples": len(fixed),
            "raw_request_ms_p50": statistics.median(
                t.seconds for t in puzzles if t.ok) * 1e3,
            "host_speed": gauge.speed(),
            "calibrations": len(gauge.took)}
    return metrics, info


def first_cells(report) -> tuple | None:
    if not report.solutions:
        return None
    return tuple(tuple(row) for row in report.solutions[0].cells)


def digest_of(cells) -> str | None:
    if cells is None:
        return None
    text = corpus.generic_text([list(row) for row in cells])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_outcome(board: corpus.Board, limit: int | None,
                     golden: dict) -> tuple:
    """(solutions, trials, passes, truncated, root event, first solution
    digest) that the program must report for this board."""
    if board.name in golden:
        return golden[board.name]
    o = solve_reference(parse_cells(board.text), limit)
    return (o.count, o.trials, o.passes, o.truncated, o.root_event,
            digest_of(o.first))


def outcome_ok(sig: tuple, board: corpus.Board, expected: tuple,
               fmt: str | None) -> bool:
    if sig[0] == "error":
        return False
    count, trials, passes, truncated, event, first, text = sig
    if (count, trials, passes, truncated, event,
            digest_of(first)) != expected:
        return False
    if first is None:
        return True
    cells = [list(row) for row in first]
    return (is_valid_solution(cells, parse_cells(board.text))
            and (not fmt or text == corpus.generic_text(cells)))


# ---------------------------------------------------------------------------
# In-process workloads: enumerate and first-large
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InProcess:
    name: str
    make_corpus: Callable[[int], list[corpus.Board]]
    limit: int | None          # None counts every solution
    render: str | None         # format of the rendered answer, if any
    fixed_case: str            # board whose median time is fixed_case_ms


ENUMERATE = InProcess("enumerate", corpus.enumerate_corpus, None, None,
                      "inkala")
FIRST_LARGE = InProcess("first-large", corpus.first_large_corpus, 1,
                        "generic", "blank16")


def request(api, text: str, limit: int | None, fmt: str | None):
    g = api.parse(text).to_grid()
    report = api.solve(g, cap=1, limit=limit)
    out = (api.render(report.solutions[0], fmt)
           if fmt and report.solutions else None)
    return report, out


def traced_request(api, tracer: Tracer, rid: int, text: str,
                   limit: int | None, fmt: str | None):
    """The same request under spans, followed by two probes that repeat
    solve()'s first steps on the same grid, so that search self time can
    be derived as solve - init_state - root propagate."""
    with tracer.span("request", rid):
        with tracer.span("grid.parse", rid):
            doc = api.parse(text)
        with tracer.span("grid.to_grid", rid):
            g = doc.to_grid()
        with tracer.span("solver.solve", rid):
            report = api.solve(g, cap=1, limit=limit)
        out = None
        if fmt and report.solutions:
            with tracer.span("grid.render", rid):
                out = api.render(report.solutions[0], fmt)
    with tracer.span("solver.init_state", rid):
        state = api.init_state(g)
    blanks = len(state.blanks)
    with tracer.span("solver.propagate", rid):
        _, _, root_passes = api.propagate(state)
    return report, out, (root_passes, blanks - len(state.blanks))


def signature(report, out) -> tuple:
    return (report.solution_count, report.trials, report.propagation_passes,
            report.truncated, report.terminal_event.value,
            first_cells(report), out)


def run_in_process(w: InProcess, seed: int, seconds: float, trace: bool,
                   golden: dict = GOLDEN) -> tuple[Tally, dict, dict]:
    gauge = SpeedGauge()

    def setup():
        api = fresh_import()
        boards = w.make_corpus(seed)
        request(api, boards[0].text, w.limit, w.render)
        return api, boards

    (api, boards), setup_s = timed_setup(setup, gauge)
    tally = Tally()
    # Distinct (board, outcome) pairs, and per untraced request an index into
    # them with its start and duration: compact, so that the bookkeeping
    # does not grow peak_rss_mb with the number of requests.
    distinct: dict[tuple, int] = {}
    seen = Counter()
    which, starts, secs = array("i"), array("d"), array("d")
    tracer = Tracer()
    layer = SolverLayer()
    start = perf_counter()
    npass = 0
    while True:
        traced = trace and npass % 2 == 1
        for k, b in enumerate(boards):
            t0 = perf_counter()
            try:
                if traced:
                    rid = len(layer.rids)
                    report, out, root = traced_request(
                        api, tracer, rid, b.text, w.limit, w.render)
                    layer.add(rid, t0, report, root, counted=npass == 1)
                else:
                    report, out = request(api, b.text, w.limit, w.render)
                    dt = perf_counter() - t0
                sig = signature(report, out)
            except Exception as exc:  # a crash is a failed operation
                dt = perf_counter() - t0
                sig = ("error", f"{type(exc).__name__}: {exc}")
            index = distinct.setdefault((k, sig), len(distinct))
            seen[index] += 1
            if not traced:
                which.append(index)
                starts.append(t0)
                secs.append(dt)
            gauge.sample()
        npass += 1
        if perf_counter() - start >= seconds and (not trace or npass >= 2):
            break
    tally.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024)

    expected = [expected_outcome(b, w.limit, golden) for b in boards]
    ok = [False] * len(distinct)
    for (k, sig), index in distinct.items():
        ok[index] = outcome_ok(sig, boards[k], expected[k], w.render)
        if not ok[index]:
            print(f"wrong: {boards[k].name}: got {sig[:5]}, "
                  f"want {expected[k]}", file=sys.stderr)
        n = seen[index]
        tally.attempted += n
        tally.failed += 0 if ok[index] else n
        tally.outcomes["ok" if ok[index] else "wrong"] += n
    keys = list(distinct)
    tally.timed = [Timed(t0, dt, ok[i], keys[i][1][0] if ok[i] else 0, True,
                         boards[keys[i][0]].name == w.fixed_case)
                   for i, t0, dt in zip(which, starts, secs)]

    info = {"corpus_sha256": corpus.digest(boards), "boards": len(boards),
            "passes": npass, "outcomes": dict(tally.outcomes)}
    if not trace:
        metrics, raw = end_to_end(tally, gauge, setup_s)
        return tally, info | raw, metrics
    by_req = tracer.by_request()
    per_layer = layer.metrics(by_req)
    traced_pass = layer.request_seconds(by_req, gauge) / layer.passes()
    untraced_pass = (sum(gauge.scale(t.start, t.seconds) for t in tally.timed)
                     / (npass - layer.passes()))
    per_layer["trace.overhead_frac"] = traced_pass / untraced_pass - 1.0
    return tally, info, {"tracer": tracer, "layers": per_layer}


class SolverLayer:
    """Solver counts and span times of the traced requests of a run.  The
    exact counts cover one pass over the corpus, so they repeat exactly
    for a seed."""

    def __init__(self) -> None:
        self.rids: list[int] = []
        self.starts: list[float] = []
        self.first: Counter = Counter()

    def add(self, rid: int, start: float, report, root: tuple[int, int],
            counted: bool) -> None:
        self.rids.append(rid)
        self.starts.append(start)
        if counted:
            self.first["requests"] += 1
            self.first["trials"] += report.trials
            self.first["passes"] += report.propagation_passes
            self.first["solutions"] += report.solution_count
            self.first["root_passes"] += root[0]
            self.first["root_forced"] += root[1]

    def passes(self) -> int:
        return len(self.rids) // self.first["requests"]

    def request_seconds(self, by_req: dict, gauge: SpeedGauge) -> float:
        """Normalised time of the traced requests, probes excluded."""
        return sum(gauge.scale(t0, by_req[r]["request"])
                   for r, t0 in zip(self.rids, self.starts))

    def metrics(self, by_req: dict) -> dict:
        reqs = [by_req[r] for r in self.rids]
        init = [q["solver.init_state"] for q in reqs]
        prop = [q["solver.propagate"] for q in reqs]
        search = sum(q["solver.solve"] for q in reqs) - sum(init) - sum(prop)
        front = sum(q["grid.parse"] + q["grid.to_grid"] for q in reqs)
        total = sum(q["request"] for q in reqs)
        trials = self.first["trials"]
        return {
            "solver.init_state_us": statistics.median(init) * 1e6,
            "solver.root_propagate_us": statistics.median(prop) * 1e6,
            "solver.root_passes": self.first["root_passes"],
            "solver.root_forced": self.first["root_forced"],
            "solver.search_ms": search / self.passes() * 1e3,
            "solver.us_per_trial": (search / (trials * self.passes()) * 1e6
                                    if trials else 0.0),
            "solver.solutions_per_trial": (self.first["solutions"] / trials
                                           if trials else 0.0),
            "solver.trials": trials,
            "solver.passes": self.first["passes"],
            "solver.solutions": self.first["solutions"],
            "solver.search_share": search / total,
            "solver.root_share": (front + sum(init) + sum(prop)) / total,
        }


# ---------------------------------------------------------------------------
# cli: one `python -m bitsudoku` process per request
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliRequest:
    kind: str                  # solve, count, check, sieve or tail
    board: corpus.Board | None
    argv: tuple[str, ...]      # arguments after `-m bitsudoku`
    stdin: bool                # puzzle text goes to stdin, not a file
    deadline: float


def cli_env(root: Path) -> dict[str, str]:
    """The checkout's src first on PYTHONPATH; bytecode cached in the
    benchmark's build directory, out of the source tree."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    return env


def run_cli(argv: list[str], stdin: str | None, deadline: float,
            env: dict, cwd: Path) -> tuple[str, int | None, bytes, float]:
    """Run one process under a deadline.  Returns (status, exit code,
    stdout, seconds); status is "done" or "timeout".  A process past its
    deadline is killed and reaped before this returns."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bitsudoku", *argv], cwd=cwd, env=env,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, _ = proc.communicate(
            stdin.encode() if stdin is not None else None, timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "timeout", None, b"", perf_counter() - t0
    return "done", proc.returncode, out, perf_counter() - t0


def cli_args(req: CliRequest, workdir: Path) -> tuple[list[str], str | None]:
    """Arguments after `-m bitsudoku`, and the text for stdin if any."""
    if req.stdin:
        return [*req.argv, "-"], req.board.text
    if req.board is not None:
        path = workdir / f"{req.kind}-{req.board.name}.txt"
        return [*req.argv, str(path)], None
    return list(req.argv), None


# Runs `python -m bitsudoku` and reports VmHWM, the peak resident set of the
# process after exec.  The ru_maxrss of a child would also count the memory
# of the benchmark process it was spawned from.
_PEAK_RSS = """\
import runpy, sys
sys.argv[0] = "bitsudoku"
try:
    runpy.run_module("bitsudoku", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as f:
        kb = [line.split()[1] for line in f if line.startswith("VmHWM")]
    sys.stderr.write("\\nVmHWM " + kb[0] + "\\n")
"""


def peak_rss_mb(argv: list[str], stdin: str | None, env: dict,
                cwd: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv], env=env, cwd=cwd,
        input=stdin.encode() if stdin is not None else b"",
        capture_output=True, timeout=CLI_DEADLINE_S)
    return int(proc.stderr.rsplit(b"VmHWM ", 1)[1].split()[0]) / 1024


def cli_plan(boards: dict[str, list[corpus.Board]]
             ) -> tuple[list[CliRequest], list[CliRequest]]:
    """One round of the cli mix (20 solve, 3 count, 2 check, 3 sieve), and
    the two deadline-bound tails, which run once per run: they take their
    whole deadline every time, and a round that waited on them would leave
    too few sieve samples for a steady median."""
    plan = [CliRequest("solve", b, ("solve", "--stats", "--format",
                                    "classic"), k % 2 == 1, CLI_DEADLINE_S)
            for k, b in enumerate(boards["solve"])]
    plan += [CliRequest("count", b, ("count",), False, CLI_DEADLINE_S)
             for b in boards["count"] * 3]
    plan += [CliRequest("check", b, ("check",), k % 2 == 0, CLI_DEADLINE_S)
             for k, b in enumerate(boards["check"])]
    plan += [CliRequest("sieve", None, ("sieve", str(corpus.SIEVE_N)),
                        False, CLI_DEADLINE_S)] * 3
    impossible, blank25 = boards["tail"]
    tails = [CliRequest("tail", impossible, ("count",), False,
                        TAIL_DEADLINE_S),
             CliRequest("tail", blank25, ("solve",), False, TAIL_DEADLINE_S)]
    return plan, tails


def cli_judge(req: CliRequest) -> Callable[[int, bytes], bool]:
    """Judge of one request's exit code and byte-exact stdout."""
    if req.kind == "sieve":
        want = primes_text(corpus.SIEVE_N)
        if want.count(b"\n") != corpus.PRIME_COUNT:
            raise AssertionError("reference sieve disagrees with pi(10**6)")
        return lambda code, out: code == 0 and out == want
    if req.kind == "count":
        return lambda code, out: code == 0 and out == b"solutions=288\n"
    if req.kind == "check":
        return lambda code, out: code == 0 and out == b"VALID\n"
    clues = parse_cells(req.board.text)
    if req.kind == "solve":
        o = solve_reference(clues, limit=1)
        want = (corpus.classic_text([list(r) for r in o.first])
                + f"solutions={o.count}{'+' if o.truncated else ''} "
                  f"trials={o.trials} passes={o.passes}\n").encode()
        return lambda code, out: (code == 0 and out == want
                                  and is_valid_solution(
                                      parse_cells(out.decode().split()[0]),
                                      clues))
    if req.board.name == "impossible":
        # No solution exists; a budget may stop the count early ("0+").
        return lambda code, out: (out, code) in {
            (b"solutions=0\n", 1), (b"solutions=0+\n", 0),
            (b"solutions=0+\n", 1)}

    def blank_solved(code: int, out: bytes) -> bool:
        try:
            cells = parse_cells(out.decode())
        except (ValueError, UnicodeDecodeError):
            return False
        return code == 0 and is_valid_solution(cells, clues)
    return blank_solved


def solutions_in(req: CliRequest, out: bytes) -> int:
    if req.kind == "solve":
        return 1
    if req.kind == "count":
        return int(out.split(b"=")[1])
    return 0


def run_cli_workload(root: Path, seed: int, seconds: float, trace: bool
                     ) -> tuple[Tally, dict, dict]:
    env = cli_env(root)
    workdir = root / ".bench_build" / f"cli-{os.getpid()}"
    # One calibration process per ~0.3 s, i.e. every few requests.
    gauge = SpeedGauge(process_task(env, root), NOMINAL_PROCESS_S, 0.3)

    def setup():
        boards = corpus.cli_corpus(seed)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for kind, group in boards.items():
            for b in group:
                (workdir / f"{kind}-{b.name}.txt").write_text(b.text)
        run_cli(["sieve", "1"], None, CLI_DEADLINE_S, env, root)
        return boards

    try:
        boards, setup_s = timed_setup(setup, gauge)
        plan, tails = cli_plan(boards)
        judges = {id(r): cli_judge(r) for r in plan + tails}
        tally = Tally()
        tracer = Tracer()
        round_time = {False: 0.0, True: 0.0}

        def issue(req: CliRequest, traced: bool) -> None:
            argv, stdin = cli_args(req, workdir)
            t0 = perf_counter()
            if traced:
                with tracer.span(f"cli.{req.kind}", len(tracer.spans)):
                    status, code, out, dt = run_cli(argv, stdin,
                                                    req.deadline, env, root)
            else:
                status, code, out, dt = run_cli(argv, stdin, req.deadline,
                                                env, root)
            gauge.sample()
            tally.attempted += 1
            tally.outcomes[f"{req.kind}:{status}"] += 1
            if status == "timeout":
                if req.kind == "tail":
                    tally.timeouts += 1
                else:
                    tally.failed += 1
                return
            ok = judges[id(req)](code, out)
            tally.failed += 0 if ok else 1
            if req.kind in ("solve", "count", "check"):
                round_time[traced] += gauge.scale(t0, dt)
                if not traced:
                    tally.timed.append(Timed(
                        t0, dt, ok, solutions_in(req, out) if ok else 0,
                        True, False))
            elif req.kind == "sieve" and not traced:
                tally.timed.append(Timed(t0, dt, ok, 0, False, True))

        rounds = Counter()
        start = perf_counter()
        while True:
            traced = trace and sum(rounds.values()) % 2 == 1
            for req in plan:
                issue(req, traced)
            rounds[traced] += 1
            if perf_counter() - start >= seconds and (not trace
                                                      or rounds[True]):
                break
        for req in tails:
            issue(req, False)
        # one of each kind of request that finishes
        kinds = {(r.kind, r.stdin): r for r in plan}
        tally.peak_rss_mb = max(peak_rss_mb(*cli_args(r, workdir), env, root)
                                for r in kinds.values())
        info = {"corpus_sha256": corpus.digest(
                    [b for group in boards.values() for b in group]),
                "rounds": sum(rounds.values()),
                "outcomes": dict(sorted(tally.outcomes.items())),
                "tail_deadline_s": TAIL_DEADLINE_S}
        if not trace:
            metrics, raw = end_to_end(tally, gauge, setup_s)
            return tally, info | raw, metrics
        per_layer = replay_solver_layer(plan, tracer)
        per_layer["trace.overhead_frac"] = (
            (round_time[True] / rounds[True])
            / (round_time[False] / rounds[False]) - 1.0)
        return tally, info, {"tracer": tracer, "layers": per_layer}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def replay_solver_layer(plan: list[CliRequest], tracer: Tracer) -> dict:
    """The solver work behind the cli's solve and count requests, replayed
    once in process under spans, so the solver layer has numbers on this
    workload too."""
    api = fresh_import()
    layer = SolverLayer()
    first = len(tracer.spans) + 1
    for rid, req in enumerate(plan, start=first):
        if req.kind in ("solve", "count"):
            solve = req.kind == "solve"
            t0 = perf_counter()
            report, _, root = traced_request(
                api, tracer, rid, req.board.text, 1 if solve else None,
                "classic" if solve else None)
            layer.add(rid, t0, report, root, counted=True)
    return layer.metrics(tracer.by_request())


def probe_layers(root: Path) -> dict:
    api = importlib.import_module("bitsudoku")
    return layers.probe(api, lambda argv, stdin: run_cli(
        argv, stdin, CLI_DEADLINE_S, cli_env(root), root))
