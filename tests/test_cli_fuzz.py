"""Mutation fuzz of the command line: byte edits of valid input files
must end in a documented exit code (0, 1, 2 or 3), never a traceback.

Each example edits one file (graph, dominating set, targets, witness or
set cover) in up to three places and runs every command that reads it
through `cli.main`, with the other files left valid. At most three
inserted digits keep a mutated vertex count below 10^4, so every
example stays fast.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domset.cli import main

# a 4-cycle 0-1-2-3 with the tail 3-4-5
VALID = {
    "graph": b"c 4-cycle with a tail\np ds 6 6\ne 0 1\ne 1 2\ne 2 3\ne 0 3\ne 3 4\ne 4 5\n",
    "ds": b"c a dominating set\n1 3 4\n",
    "targets": b"0 2 5\n",
    "witness": b'{"left": [0, 2], "right": [1, 3]}\n',
    "setcover": b'{"universe": [1, 2, 3, 4], "sets": [[1, 2], [3, 4], [1, 3]]}\n',
}

COMMANDS = [
    ["solve", "--algo", "auto", "--targets", "{targets}", "{graph}"],
    ["solve", "--algo", "hybrid", "--i", "3", "{graph}"],
    ["exact", "--max-n", "20", "--targets", "{targets}", "{graph}"],
    ["verify", "--ds", "{ds}", "--targets", "{targets}", "{graph}"],
    ["verify", "--witness", "{witness}", "{graph}"],
    ["reduce", "--check-free", "{setcover}"],
]

# bytes that keep an edit close to the formats, plus any byte at all
edit_bytes = st.one_of(st.sampled_from(b'0123456789 -_\n\tcpe{}[],:"tf'), st.integers(0, 255))
edits = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2**16), edit_bytes),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in ops:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and op == "replace":
            buf[pos % len(buf)] = byte
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


def write_inputs(folder, kind=None, ops=()) -> dict[str, Path]:
    """Write every valid file into `folder`, the one of `kind` mutated."""
    paths = {}
    for name, data in VALID.items():
        paths[name] = Path(folder, name)
        paths[name].write_bytes(mutate(data, ops) if name == kind else data)
    return paths


@pytest.mark.parametrize("kind", VALID)
@given(ops=edits)
@settings(max_examples=80, deadline=None)
def test_mutated_input_ends_in_an_exit_code(kind, ops):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp, kind, ops)
        for command in COMMANDS:
            if "{" + kind + "}" not in command:
                continue
            argv = [arg.format(**paths) for arg in command]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, mutate(VALID[kind], ops))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_valid_inputs_pass(command, tmp_path):
    # the unmutated files are accepted, so each edit starts from a
    # passing run
    paths = write_inputs(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([arg.format(**paths) for arg in command]) == 0
