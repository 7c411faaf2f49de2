"""The CLI's stdout contract: exit code and stdout per command line.

Each row maps one command line to (exit code, first 16 hex digits of the
sha256 of its stdout).  The rows were recorded from the engine as it stood
before `block_of` and `is_consistent_partial` left the package, so a
refactor must reproduce them byte for byte; any drift is a behaviour
change.  Each line runs in-process through `cli.main` on files written to
a temporary directory.  The boards are `tests/test_golden.py`'s seeded corpus, built
as `seeded_board` builds them, in generic form; each `check` reads the
board the `solve` above it printed.  Stderr is not pinned.

The two inputs that run unbounded today, Norvig's "impossible" count and
the first solution of a blank 25x25 board, are left out: neither ends in
bounded time until solve takes a budget (ROADMAP item 3).
"""

import hashlib

from bitsudoku.cli import main
from bitsudoku.grid import render

from oracles import CLASSIC_81, INVALID_4
from test_golden import GOLDEN, seeded_board

TWICE_4 = "2\n1 0 1 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"

INPUTS = {
    "classic.txt": CLASSIC_81 + "\n",
    "invalid4.txt": INVALID_4,
    "twice4.txt": TWICE_4,
    **{f"b{o}_{s}_{b}.txt": render(seeded_board(o, s, b))
       for o, s, b in GOLDEN},
}

TRANSCRIPT = {
    "solve --stats b2_2_12.txt": (0, "0118adc00ca058f5"),
    "solve --stats b2_3_13.txt": (0, "9d99d75c444f4d6b"),
    "solve --stats b2_4_16.txt": (0, "a0b497ed00f9e169"),
    "solve --stats b3_1_50.txt": (0, "c199f59ff45f89b4"),
    "solve --stats b3_1_53.txt": (0, "56b0150768a1125a"),
    "solve --stats b3_2_50.txt": (0, "c221105ec1e8d4da"),
    "solve --stats b3_3_50.txt": (0, "db1c82a434a0cfc1"),
    "solve --stats b3_3_53.txt": (0, "c1143714f5ff6538"),
    "solve --stats b3_4_53.txt": (0, "85de8307b0a6c17b"),
    "solve --stats b4_1_120.txt": (0, "f390e73e717128bd"),
    "solve --stats b4_1_130.txt": (0, "facc9a7881c62f57"),
    "solve --stats b4_2_130.txt": (0, "123412aa4c47cd4f"),
    "solve --stats b4_3_130.txt": (0, "1b8839ecd2fde05d"),
    "solve --stats b5_1_280.txt": (0, "41c274303ee2456c"),
    "solve --stats b5_2_245.txt": (0, "a0300855a3d05be1"),
    "solve --stats b5_2_270.txt": (0, "2870385e93a54297"),
    "solve --stats b5_3_270.txt": (0, "2f115a200b8a1254"),
    "solve --format classic classic.txt": (0, "f9e16cbbcc897384"),
    "count --stats b2_2_12.txt": (0, "ae8ba10bd5e9669e"),
    "count --stats b2_3_13.txt": (0, "121ecd888cd9a8df"),
    "count --stats b2_4_16.txt": (0, "6e88f60689be3e78"),
    "count --stats b3_1_50.txt": (0, "03391b5bbbb87caa"),
    "count --stats b3_1_53.txt": (0, "09c92e223bcac051"),
    "count --stats b3_2_50.txt": (0, "2e27a752f7d4b7b8"),
    "count --stats b3_3_50.txt": (0, "b33d9effe0191510"),
    "count --stats b3_3_53.txt": (0, "1176b128f286fce5"),
    "count --stats b3_4_53.txt": (0, "d54093080a1a45e4"),
    "count --limit 1 --stats b4_1_120.txt": (0, "582e4fadabcc1fe9"),
    "count --limit 1 --stats b4_1_130.txt": (0, "6141ed9e02882d72"),
    "count --limit 1 --stats b4_2_130.txt": (0, "0e34a8d4d7c6f6a3"),
    "count --limit 1 --stats b4_3_130.txt": (0, "674841de50921bab"),
    "count --limit 1 --stats b5_1_280.txt": (0, "c4e53a28a1a7bc04"),
    "count --limit 1 --stats b5_2_245.txt": (0, "538a2a8e99b37b23"),
    "count --limit 1 --stats b5_2_270.txt": (0, "034f9faac2c3425e"),
    "count --limit 1 --stats b5_3_270.txt": (0, "ea6ab8f6af43534a"),
    "check b2_2_12.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b2_3_13.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b2_4_16.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b3_1_50.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b3_1_53.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b3_2_50.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b3_3_50.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b3_3_53.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b3_4_53.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b4_1_120.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b4_1_130.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b4_2_130.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b4_3_130.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b5_1_280.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b5_2_245.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b5_2_270.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check b5_3_270.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check classic.solved.txt": (0, "de545cc7e7ff8eaa"),
    "check invalid4.txt": (1, "d528a6a9da6ea5e2"),
    "solve twice4.txt": (1, "30aa8ce96054a74d"),
    "count twice4.txt": (1, "25779ca349fc441c"),
    "sieve 0": (0, "e3b0c44298fc1c14"),
    "sieve 1": (0, "e3b0c44298fc1c14"),
    "sieve 2": (0, "53c234e5e8472b6a"),
    "sieve 3": (0, "fcb9cc30b0f3e471"),
    "sieve 1000": (0, "55542ac8f84d3c79"),
    "sieve 65537": (0, "a946ac942b19fc69"),
    "sieve 1000000": (0, "4883963dd4510a29"),
    "count --limit 0 x.txt": (2, "e3b0c44298fc1c14"),
    "sieve +7": (2, "e3b0c44298fc1c14"),
    "frobnicate x.txt": (2, "e3b0c44298fc1c14"),
}


def run_transcript(lines, tmp_path, monkeypatch, capsys):
    """Each line's (exit code, stdout digest), in order; a solve that
    prints a board writes it to <name>.solved.txt for a later check."""
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    got = {}
    for line in lines:
        argv = line.split()
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse's usage errors
            code = exc.code
        out = capsys.readouterr().out
        got[line] = (code, hashlib.sha256(out.encode()).hexdigest()[:16])
        if argv[0] == "solve" and code == 0:
            solved = tmp_path / argv[-1].replace(".txt", ".solved.txt")
            solved.write_text(out.split("solutions=")[0])
    return got


def test_stdout_and_exit_codes_match_the_transcript(tmp_path, monkeypatch,
                                                    capsys):
    got = run_transcript(TRANSCRIPT, tmp_path, monkeypatch, capsys)
    assert got == TRANSCRIPT
