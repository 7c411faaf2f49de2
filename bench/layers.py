"""Fixed per-layer probes, the same on every workload.

Each probe times one public function of one module on fixed inputs that
do not depend on the run's seed, so a layer's number can be compared
across runs, workloads and commits.
"""

from __future__ import annotations

import random
import statistics
import timeit
from time import perf_counter
from typing import Callable

import corpus

ORDERS = {2: "4x4", 3: "9x9", 4: "16x16", 5: "25x25"}
# Calls per timing sample, so that each sample lasts some milliseconds.
CALLS = {2: 2000, 3: 400, 4: 100, 5: 40}
REPEAT = 5


def per_call(fn: Callable[[], object], number: int) -> float:
    """Median seconds per call over REPEAT samples of `number` calls."""
    return statistics.median(
        t / number for t in timeit.repeat(fn, number=number, repeat=REPEAT))


def seconds_of(fn: Callable[[], object]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def probe(api, cli: Callable[[list[str], str | None], tuple]
          ) -> dict[str, float]:
    """Every per-layer metric that does not come from the workload's own
    spans.  `cli(argv, stdin)` runs one `python -m bitsudoku` process and
    returns run_cli's (status, exit code, stdout, seconds)."""
    out: dict[str, float] = {}

    a = api.SmallSet.from_elements([1, 3, 5, 7, 9], 9)
    b = api.SmallSet.from_elements([2, 3, 5, 8], 9)
    out["smallset.intersect_ns"] = per_call(lambda: a.intersect(b),
                                            20000) * 1e9
    out["smallset.remove_ns"] = per_call(lambda: a.remove(5), 20000) * 1e9
    out["smallset.insert_ns"] = per_call(lambda: a.insert(4), 20000) * 1e9

    rng = random.Random("layers")
    roots = {}
    for order, label in ORDERS.items():
        full = corpus.shuffled_valid_grid(order, rng)
        m = order * order
        text = corpus.generic_text(
            corpus.delete_cells(full, m * m // 2, rng))
        doc = api.parse(text)
        complete = api.parse(corpus.generic_text(full)).to_grid()
        n = CALLS[order]
        out[f"grid.parse_us.{label}"] = per_call(
            lambda: api.parse(text), n) * 1e6
        out[f"grid.render_us.{label}"] = per_call(
            lambda: api.render(doc), n) * 1e6
        out[f"grid.check_us.{label}"] = per_call(
            lambda: api.is_sudoku_matrix(complete), n) * 1e6
        roots[order] = doc.to_grid()

    # Candidates per blank over root states: Inkala, and a 25x25 board
    # after root propagation.
    for label, g in (("9x9", api.parse(corpus.INKALA).to_grid()),
                     ("25x25", roots[5])):
        state, _, _ = api.propagate(api.init_state(g))
        cells = list(state.blanks)

        def sweep(state=state, cells=cells):
            for i, j in cells:
                api.candidates(state, i, j)
        out[f"solver.candidates_ns.{label}"] = (
            per_call(sweep, 20) / len(cells) * 1e9)

    # Computed, not measured: the size of the bit array the sieve strikes.
    n = corpus.SIEVE_N
    out["sieve.bytes_computed"] = (len(api.BitArray(n + 1).words)
                                   * api.WORD_WIDTH // 8)

    def wall(argv: list[str], stdin: str | None = None) -> float:
        status, code, _, seconds = cli(argv, stdin)
        if status != "done" or code != 0:
            raise RuntimeError(f"probe `{' '.join(argv)}` failed: {status}")
        return seconds

    # Interleaved, so that figures which are subtracted or divided below
    # were measured at the same host speed.
    startup, solve, sieve, primes = [], [], [], []
    for k in range(7):
        startup.append(wall(["sieve", "1"]))
        solve.append(wall(["solve", "--stats", "--format", "classic", "-"],
                          corpus.CLASSIC))
        if k < 3:
            sieve.append(wall(["sieve", str(n)]))
            primes.append(seconds_of(lambda: api.primes_up_to(n)))
    med = statistics.median
    out["sieve.primes_up_to_ms"] = med(primes) * 1e3
    out["cli.startup_ms"] = med(startup) * 1e3
    # Share of a small request (solve the classic board) that is start-up.
    out["cli.startup_share"] = med(u / v for u, v in zip(startup, solve))
    out["cli.sieve_output_ms"] = med(
        s - u - p for s, u, p in zip(sieve, startup, primes)) * 1e3
    return out
