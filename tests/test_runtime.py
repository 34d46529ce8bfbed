"""The runtime without numpy: a child interpreter that cannot import numpy
loads every built-in example and runs one session of all 14 subcommands on
the examples and on files it writes. Each command exits with its code and
prints what it prints in this process, the child prints the same bytes
under two hash seeds, and numpy, ``dataclasses`` and ``inspect`` are never
loaded. Only the standard library and finspace are imported here."""

import functools
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from finspace.cli import main
from finspace.corpus import load
from finspace.fileio import format_complex, format_space
from finspace.functors import face_poset

DUNCE = format_complex(load("dunce"))
RENAMED_X_DUNCE = format_space(face_poset(load("dunce"))).translate(
    str.maketrans("12345678", "hgfedcba")
)

# The files the session starts from, in its working directory.
FILES = {
    "wallet-id.map": "dom: example:wallet\ncod: example:wallet\n"
    + "".join(f"send: {x} {x}\n" for x in load("wallet").labels),
    "no-dom.map": "cod: example:wallet\nsend: x x\n",
    "self-cover.poset": "elements: a b\ncover: a b\ncover: b b\n",
    "cycle.poset": "elements: a b c\ncover: a b\ncover: b c\ncover: c a\n",
    "tri.cplx": "vertices: a b c\nfacet: a b c\n",
    "simplex8.cplx": "vertices: a b c d e f g h\nfacet: a b c d e f g h\n",
    "rp2.cplx": "vertices: 1 2 3 4 5 6\n" + "".join(
        f"facet: {' '.join(f)}\n" for f in "123 124 135 146 156 236 245 256 345 346".split()
    ),
    "dunce-v.cplx": DUNCE.translate({ord(d): f"v{d}" for d in "12345678"}),
    "x-dunce-renamed.poset": RENAMED_X_DUNCE,
    "x-dunce-dropped.poset": RENAMED_X_DUNCE.replace("cover: h h.g\n", "", 1),
    "ghost.cert": "start:\nelements: a b\ncover: a b\nremove ghost beat-up\n",
    "cover-first.cert": "start:\ncover: a b\nelements: a b\nremove a beat-up\n",
}

# One command a line: its exit code, its argv, and after " > " the file that
# keeps its stdout for later lines.
SESSION = """
0 example
0 example sierpinski-map
0 example dunce
3 example nosuch
0 core example:wallet
0 core --certificate example:wallet > core.cert
0 verify core.cert
0 weak-points example:wallet
0 collapse example:wallet > collapse.cert
0 verify collapse.cert
0 collapse example:wallet --target example:wallet-minus-x
1 collapse example:sd3
2 collapse example:wallet --budget 0
3 collapse example:wallet --budget -1
0 bridge example:vee
0 k example:wallet > k-wallet.cplx
0 x k-wallet.cplx
0 subdivide example:wallet
0 x example:dunce > x-dunce.poset
0 k x-dunce.poset
0 subdivide example:dunce > sd-dunce.cplx
0 subdivide tri.cplx
3 subdivide simplex8.cplx
3 k example:dunce
3 x example:wallet
0 homology example:dunce
0 homology --reduced sd-dunce.cplx
0 homology rp2.cplx
0 homology --reduced example:wallet
0 cylinder example:sierpinski-map > cylinder.cert
0 verify cylinder.cert
1 cylinder example:sierpinski-map --collapse
0 cylinder wallet-id.map --collapse > wallet-id.cert
0 verify wallet-id.cert
3 cylinder no-dom.map
0 translate-collapse example:wallet --point x > translate.cert
0 verify translate.cert
3 translate-collapse example:wallet --point ghost
3 translate-collapse example:wallet --point t1
0 translate-collapse tri.cplx --pair a,b c > pair.cert
0 verify pair.cert
0 translate-collapse tri.cplx --pair a,b c --emit-both-sides
3 translate-collapse tri.cplx --pair a b
1 verify ghost.cert
3 verify cover-first.cert
3 verify missing.cert
3 core self-cover.poset
3 core cycle.poset
3 core .
0 iso example:dunce dunce-v.cplx
1 iso example:dunce rp2.cplx
0 iso x-dunce.poset x-dunce-renamed.poset
1 iso x-dunce.poset x-dunce-dropped.poset
0 iso example:wallet-open example:wallet-open
1 iso example:sd3 example:four-point
3 iso example:wallet example:dunce
0 dot example:wallet
0 dot example:dunce
0 --help
3 nosuchcommand
3 collapse
"""

# The stdout of two lines: the wallet is its own core, and the identity is
# the isomorphism found from wallet-open to itself, though it has others.
PINNED = {
    "0 core example:wallet": format_space(load("wallet")),
    "0 iso example:wallet-open example:wallet-open":
        "c1 -> c1\nc2 -> c2\nc3 -> c3\nm2 -> m2\nm4 -> m4\n",
}


def run_session(main, files, session):
    """Write the files, run each line's argv through main, and return each
    line's exit code, stdout and stderr. The child runs this function's
    source, so both processes run the same code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    for name, text in files.items():
        with open(name, "w") as fh:
            fh.write(text)
    runs = []
    for line in session:
        argv, _, keep = line.split(" ", 1)[1].partition(" > ")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv.split())
            except SystemExit as exc:  # usage errors and --help
                code = exc.code
        if keep:
            with open(keep, "w") as fh:
                fh.write(out.getvalue())
        runs.append([code, out.getvalue(), err.getvalue()])
    return runs


CHILD = inspect.getsource(run_session) + """
import json, sys

sys.modules["numpy"] = None  # any import of numpy now fails
from finspace.cli import main
from finspace.corpus import load, names

for name in names():
    load(name)
runs = run_session(main, *json.loads(sys.argv[1]))
assert sys.modules.pop("numpy") is None
loaded = {m.split(".")[0] for m in sys.modules} & {"numpy", "dataclasses", "inspect"}
print(json.dumps({"loaded": sorted(loaded), "runs": runs}))
"""
LINES = SESSION.strip().splitlines()
SRC = str(Path(__file__).resolve().parents[1] / "src")


@functools.cache
def children():
    """The child's stdout and stderr under hash seeds 0 and 1, each run once
    in an empty directory, so that no message names a temporary path."""
    done = []
    for seed in ("0", "1"):  # COLUMNS: argparse wraps usage and help to it
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed, COLUMNS="80")
        with tempfile.TemporaryDirectory() as cwd:
            child = subprocess.run(
                [sys.executable, "-c", CHILD, json.dumps([FILES, LINES])],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
            )
        assert child.returncode == 0, child.stderr
        done.append((child.stdout, child.stderr))
    return tuple(done)


def test_the_session_loads_neither_numpy_nor_dataclasses_nor_inspect():
    for out, _ in children():
        assert json.loads(out)["loaded"] == []


def test_the_session_prints_the_same_bytes_under_two_hash_seeds():
    assert children()[0] == children()[1]


def test_each_command_exits_with_its_code_and_prints_what_it_prints_in_process(
    tmp_path, monkeypatch
):
    runs = json.loads(children()[0][0])["runs"]
    assert [code for code, _, _ in runs] == [int(line.split()[0]) for line in LINES]
    for (code, out, err), line in zip(runs, LINES):
        if code and not err.startswith("usage: "):  # a refusal is one stderr line
            assert out == "" and err.count("\n") == 1, line
        assert out == PINNED.get(line, out), line
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_session(main, FILES, LINES) == runs
