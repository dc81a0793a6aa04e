"""Golden bytes: the CLI reports of every corpus member and of `modext corpus`.

`golden_cli.jsonl` holds one canonical JSON line per (member, command) and
a last line for the corpus self-check.  A change that keeps results must
keep these bytes; regenerate the file only for a change of results, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.jsonl
"""

import json
from pathlib import Path

from modext import cli
from modext.corpus import corpus_matroid, corpus_names

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")
COMMANDS = ("charpoly", "flats", "modular-flats", "round", "supersolvable",
            "divflag", "me-cert", "joins")


def _line(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def golden_lines():
    """Each member's report per command, run in process, then the corpus report."""
    parser = cli.build_parser()
    for name in corpus_names():
        m = corpus_matroid(name)
        for command in COMMANDS:
            args = parser.parse_args([command, "--input", name])
            result, code = cli.run_analysis(args, m)
            yield _line({"member": name, "command": command, "code": code, "result": result})
    result, code = cli.run_corpus(parser.parse_args(["corpus"]))
    yield _line({"command": "corpus", "code": code, "result": result})


def test_reports_match_golden_bytes():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = list(golden_lines())
    assert len(got) == len(expected)
    for line, want in zip(got, expected):
        assert line == want


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
