"""End-to-end CLI tests over subprocesses: bytes, exit codes, files."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modext import cli, lattice
from modext.algebra import IntPolynomial
from modext.corpus import corpus_names
from modext.generators import _FIXED


def run_cli(*argv, env_extra=None, cwd=None, timeout=None):
    # the child imports the package these tests import, installed or not
    source = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "modext.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout)


def run_json(*argv, **kwargs):
    proc = run_cli(*argv, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBasics:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_envelope_keys(self):
        report = run_json("flats", "--input", "pg-1-2")
        assert sorted(report) == ["command", "input", "result", "tool_version"]
        assert report["command"] == "flats" and report["input"] == "pg-1-2"

    def test_output_is_byte_deterministic(self):
        a = run_cli("me-cert", "--input", "example-13")
        b = run_cli("me-cert", "--input", "example-13")
        assert a.stdout == b.stdout and a.returncode == 0
        c = run_cli("charpoly", "--input", "pg-2-3")
        d = run_cli("charpoly", "--input", "pg-2-3")
        assert c.stdout == d.stdout

    def test_timing_only_when_asked(self):
        assert "timing" not in run_json("flats", "--input", "pg-1-2")
        timed = run_json("flats", "--input", "pg-1-2", "--timing")
        assert timed["timing"]["seconds"] >= 0

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("charpoly", "--input", "braid-4", "--output", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
        report = json.loads(out.read_text())
        assert report["result"]["charpoly"] == ["-6", "11", "-6", "1"]


class TestAnalysisCommands:
    def test_charpoly_of_arrangement_input(self):
        result = run_json("charpoly", "--input", "braid-4")["result"]
        assert result == {"atoms": 6, "rank": 3, "dim": 4,
                          "charpoly": ["-6", "11", "-6", "1"],
                          "arrangement_charpoly": ["0", "-6", "11", "-6", "1"]}

    def test_arrangement_charpoly_reads_the_one_lattice(self, monkeypatch, capsys):
        # the arrangement's charpoly comes from the lattice the command built
        # under --max-flats, not from a second enumeration
        calls = []
        enumerate_flats = lattice.enumerate_flats

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_flats(*args, **kwargs)

        monkeypatch.setattr(lattice, "enumerate_flats", counting)
        monkeypatch.setattr(cli, "enumerate_flats", counting)
        assert cli.main(["charpoly", "--input", "braid-4"]) == 0
        assert len(calls) == 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert result.pop("dim") == 4
        assert result.pop("arrangement_charpoly") == ["0", "-6", "11", "-6", "1"]
        line = json.dumps({"member": "braid-4", "command": "charpoly", "code": 0,
                           "result": result}, sort_keys=True, separators=(",", ":"))
        golden = Path(__file__).with_name("golden_cli.jsonl")
        assert line in golden.read_text(encoding="utf-8").splitlines()

    def test_charpoly_of_projective_plane(self):
        result = run_json("charpoly", "--input", "pg-2-3")["result"]
        assert result["atoms"] == 13
        assert result["charpoly"] == ["-27", "39", "-13", "1"]

    def test_flats(self):
        result = run_json("flats", "--input", "pg-2-2")["result"]
        assert result == {"atoms": 7, "rank": 3,
                          "flats_per_rank": [1, 7, 7, 1], "total": 16}

    def test_modular_flats(self):
        result = run_json("modular-flats", "--input", "pg-2-2")["result"]
        assert result["count"] == 16
        assert [] in result["modular_flats"]

    def test_round(self):
        assert run_json("round", "--input", "pg-2-2")["result"] == {"round": True}
        result = run_json("round", "--input", "fish-sign")["result"]
        assert result["round"] is False
        assert result["witness"] == [[0, 1], [2, 3]]

    def test_supersolvable(self):
        result = run_json("supersolvable", "--input", "ziegler-11")["result"]
        assert result["supersolvable"] is True
        assert result["chain"]["kind"] == "supersolvable-chain"
        assert result["chain"]["flats"][0] == []
        result = run_json("supersolvable", "--input", "example-13")["result"]
        assert result == {"supersolvable": False, "chain": None}

    def test_divflag(self):
        result = run_json("divflag", "--input", "dn-4")["result"]
        assert result["divisional"] is True
        assert result["flag"]["quotient_roots"] == [5, 3, 3, 1]
        result = run_json("divflag", "--input", "dn-3", "--model", "frame")["result"]
        assert result["divisional"] is True

    def test_me_cert(self):
        result = run_json("me-cert", "--input", "example-13")["result"]
        assert result["me"] is True
        cert = result["certificate"]
        assert cert["kind"] == "modular-join" and cert["x"] == [0]
        result = run_json("me-cert", "--input", "fish-sign")["result"]
        assert result == {"me": False, "certificate": None}

    def test_joins(self):
        result = run_json("joins", "--input", "ziegler-19")["result"]
        assert result["count"] == len(result["joins"]) > 0
        for entry in result["joins"]:
            assert entry["identity_verified"] is True
            assert sorted(set(entry["x"])) == entry["x"]

    def test_gain_graph_models(self):
        frame = run_json("charpoly", "--input", "bowtie", "--model", "frame")
        lift = run_json("charpoly", "--input", "bowtie", "--model", "lift")
        assert frame["result"]["atoms"] == 8 and frame["result"]["rank"] == 5
        assert lift["result"]["atoms"] == 9 and lift["result"]["rank"] == 5
        assert lift["result"]["charpoly"] == ["-16", "48", "-56", "32", "-9", "1"]


class TestRealize:
    def test_lift_realization(self):
        report = run_json("realize", "--input", "bowtie",
                          "--model", "lift", "--field", "gf2")
        arr = report["result"]["arrangement"]
        assert arr["field"] == {"kind": "gf", "p": 2}
        assert len(arr["forms"]) == 9 and arr["dim"] == 6
        assert arr["labels"][0] == "inf"

    def test_frame_realization(self):
        report = run_json("realize", "--input", "bowtie-loops",
                          "--model", "frame", "--field", "q")
        arr = report["result"]["arrangement"]
        assert len(arr["forms"]) == 13 and arr["dim"] == 5

    def test_realize_needs_gain_graph(self):
        proc = run_cli("realize", "--input", "braid-4")
        assert proc.returncode == 2
        assert "gain graph" in proc.stderr

    def test_impossible_embedding_is_invalid_input(self):
        proc = run_cli("realize", "--input", "bowtie", "--field", "gf2")
        assert proc.returncode == 2

    def test_bad_field_token(self):
        proc = run_cli("realize", "--input", "bowtie", "--field", "gf_eight")
        assert proc.returncode == 2
        assert "cannot parse field" in proc.stderr


class TestVerifyCommand:
    def test_round_trip(self, tmp_path):
        report = run_json("me-cert", "--input", "example-13")
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(report["result"]["certificate"]))
        proc = run_cli("verify", "--input", "example-13",
                       "--certificate", str(cert_file))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == {"ok": True, "failures": []}

    def test_tampered_certificate_fails(self, tmp_path):
        report = run_json("me-cert", "--input", "example-13")
        cert = report["result"]["certificate"]
        cert["x"] = [0, 1]
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        proc = run_cli("verify", "--input", "example-13",
                       "--certificate", str(cert_file))
        assert proc.returncode == 4
        assert "verification failed at $" in proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["ok"] is False
        assert any("is not the intersection of the sides" in f["reason"]
                   for f in result["failures"])

    def test_unreadable_certificate(self, tmp_path):
        bad = tmp_path / "cert.json"
        bad.write_text("{not json")
        proc = run_cli("verify", "--input", "pg-1-2", "--certificate", str(bad))
        assert proc.returncode == 2

    def test_atoms_outside_the_ground_set(self, tmp_path):
        # pg-2-2 has atoms 0..6: atom 7 and atom 10^12 are invalid input,
        # rejected before any mask is built; {0, 1} is no flat, so it fails
        cert_file = tmp_path / "cert.json"
        for coatom, code in (([7], 2), ([10 ** 12], 2), ([0, 1], 4)):
            cert = {"kind": "modular-coatom", "coatom": coatom, "child": {"kind": "empty"}}
            cert_file.write_text(json.dumps(cert))
            proc = run_cli("verify", "--input", "pg-2-2", "--certificate", str(cert_file))
            assert proc.returncode == code, proc.stderr
            if code == 2:
                assert f"atom {coatom[0]} outside ground set of size 7" in proc.stderr

    def test_chain_certificate_verifies(self, tmp_path):
        report = run_json("supersolvable", "--input", "ziegler-11")
        cert_file = tmp_path / "chain.json"
        cert_file.write_text(json.dumps(report["result"]["chain"]))
        proc = run_cli("verify", "--input", "ziegler-11",
                       "--certificate", str(cert_file))
        assert proc.returncode == 0


class TestFileInputs:
    def test_graph_vertex_numbers_are_not_bit_positions(self, tmp_path):
        # one edge between vertices 0 and 10^11: packed by vertex number, its
        # incidence vector would be a 12.5 GB int
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"type": "graph", "vertices": 10 ** 11 + 1,
                                 "edges": [[0, 10 ** 11]]}))
        result = run_json("flats", "--input", str(f))["result"]
        assert result == {"atoms": 1, "rank": 1, "flats_per_rank": [1, 1], "total": 2}

    def test_matroid_json(self, tmp_path):
        data = {"type": "linear", "field": {"kind": "gf", "p": 2},
                "matrix": [["1", "0", "1"], ["0", "1", "1"]]}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(data))
        result = run_json("charpoly", "--input", str(f))["result"]
        assert result == {"atoms": 3, "rank": 2, "charpoly": ["2", "-3", "1"]}

    @pytest.mark.parametrize("data", [
        {"type": "linear", "field": {"kind": "gf", "p": 3},
         "matrix": [[1, 0, 1, 1], [0, 1, 1, 2]]},
        {"type": "graph", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]},
    ], ids=lambda data: data["type"])
    def test_labels_key_is_ignored(self, data, tmp_path, capsys):
        # a matroid names no atoms: a "labels" key, of any length and with
        # repeats or not, changes no byte of the report
        atoms = len(data["edges"]) if "edges" in data else len(data["matrix"][0])
        f = tmp_path / "m.json"
        reports = []
        for labels in (None, [str(a) for a in range(atoms)], ["a"], ["a"] * atoms):
            f.write_text(json.dumps(data if labels is None else dict(data, labels=labels)))
            assert cli.main(["flats", "--input", str(f)]) == 0
            reports.append(capsys.readouterr().out)
        assert json.loads(reports[0])["result"]["atoms"] == atoms
        assert reports == reports[:1] * 4

    def test_arrangement_json(self, tmp_path):
        report = run_json("realize", "--input", "bowtie",
                          "--model", "lift", "--field", "gf2")
        f = tmp_path / "arr.json"
        f.write_text(json.dumps(report["result"]["arrangement"]))
        result = run_json("charpoly", "--input", str(f))["result"]
        assert result["charpoly"] == ["-16", "48", "-56", "32", "-9", "1"]
        assert result["dim"] == 6

    def test_gain_graph_json(self, tmp_path):
        data = {"vertices": 3, "group": {"kind": "sign"},
                "edges": [[0, 1, "+1"], [0, 1, "-1"], [1, 2, "+1"]],
                "loops": [2]}
        f = tmp_path / "g.json"
        f.write_text(json.dumps(data))
        result = run_json("flats", "--input", str(f))["result"]
        assert result["atoms"] == 4

    def test_lift_of_loopy_graph_is_invalid(self, tmp_path):
        data = {"vertices": 2, "group": {"kind": "sign"},
                "edges": [[0, 1, "+1"]], "loops": [0]}
        f = tmp_path / "g.json"
        f.write_text(json.dumps(data))
        proc = run_cli("flats", "--input", str(f), "--model", "lift")
        assert proc.returncode == 2

    def test_unclassifiable_json(self, tmp_path):
        f = tmp_path / "x.json"
        f.write_text(json.dumps({"hello": 1}))
        proc = run_cli("flats", "--input", str(f))
        assert proc.returncode == 2
        assert "neither" in proc.stderr


MALFORMED_INPUTS = {
    "graph-edge-short": {"type": "graph", "vertices": 2, "edges": [[0]]},
    "graph-vertices": {"type": "graph", "vertices": "x", "edges": [[0, 1]]},
    "graph-edges": {"type": "graph", "vertices": 2, "edges": 5},
    "graph-negative-vertices": {"type": "graph", "vertices": -3, "edges": []},
    "arrangement-dim": {"field": {"kind": "rational"}, "dim": "x", "forms": [[1]]},
    "gaingraph-vertices": {"vertices": "x", "group": {"kind": "sign"},
                           "edges": [[0, 1, "+1"]]},
    "group-zmod": {"vertices": 2, "group": {"kind": "zmod", "p": "q"},
                   "edges": [[0, 1, "0"]]},
    "linear-matrix": {"type": "linear", "field": {"kind": "gf", "p": 2}, "matrix": 5},
}

MALFORMED_CERTIFICATES = {
    "coatom-atom": {"kind": "modular-coatom", "coatom": [-1], "child": {"kind": "empty"}},
    "chain-atom": {"kind": "supersolvable-chain", "flats": [[], [-1], [0, 1, 2]]},
    "quotient-roots": {"kind": "divisional-flag", "flats": [[], [0], [0, 1, 2]],
                       "quotient_roots": ["x"]},
}


def assert_invalid_input(proc):
    """A field of the wrong shape is invalid input (exit 2), not a crash."""
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestExitCodes:
    def test_unknown_name(self):
        proc = run_cli("charpoly", "--input", "petersen")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_too_large(self):
        proc = run_cli("charpoly", "--input", "pg-2-3", "--max-atoms", "7")
        assert proc.returncode == 3
        proc = run_cli("flats", "--input", "pg-2-3", "--max-flats", "10")
        assert proc.returncode == 3
        # the atom count is checked before the 500-element group table,
        # whose validation alone takes seconds, is built
        started = time.monotonic()
        proc = run_cli("flats", "--input", "k-2-z500")
        assert proc.returncode == 3 and "500 atoms" in proc.stderr
        assert time.monotonic() - started < 5
        # and the hyperplane count n(n-1)/2 before the braid arrangement
        started = time.monotonic()
        proc = run_cli("flats", "--input", "braid-600")
        assert proc.returncode == 3
        assert proc.stderr == "error: 179700 atoms exceeds the limit of 24\n"
        assert time.monotonic() - started < 5
        # counts past Python's 4,300-digit string conversion, and PG(n, p)
        # with a power or a primality test that would take minutes, are
        # decided before the numbers; an unprintable count goes unnamed
        big = "9" * 2200
        unprintable = "error: the atom count exceeds the limit of 24\n"
        for name, stderr in [
                *((name, unprintable) for name in (f"braid-{big}", f"bn-{big}", f"dn-{big}",
                                                   f"k-{big}-z3", "pg-10000-3", "pg-10000000-3",
                                                   "pg-100000000-3")),
                ("pg-1-2305843009213693951",
                 "error: 2305843009213693952 atoms exceeds the limit of 24\n")]:
            started = time.monotonic()
            proc = run_cli("charpoly", "--input", name, timeout=5)
            assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr), name[:24]
            assert time.monotonic() - started < 5, name[:24]

    def test_large_prime_fields(self, tmp_path):
        # primality is decided in time polynomial in the digits, exactly
        # below algebra.PRIME_LIMIT; from there on the field is refused
        big = 2305843009213693951  # 2^61 - 1
        limit = 3317044064679887385961981
        data = tmp_path / "input.json"
        data.write_text(json.dumps({"type": "linear", "field": {"kind": "gf", "p": big},
                                    "matrix": [[1, 0, 1], [0, 1, 1]]}))
        for source, code in ((f"pg-0-{big}", 0), (str(data), 0), (f"pg-0-{limit}", 2)):
            started = time.monotonic()
            proc = run_cli("charpoly", "--input", source, timeout=5)
            assert proc.returncode == code, (source, proc.stderr)
            assert time.monotonic() - started < 5, source
        assert proc.stderr == (f"error: GF(p): characteristic must be below {limit}, "
                               "where its primality is decided exactly\n")
        assert run_json("charpoly", "--input", f"pg-0-{big}")["result"]["charpoly"] == ["-1", "1"]
        assert run_json("charpoly", "--input", str(data))["result"]["charpoly"] == ["2", "-3", "1"]

    @pytest.mark.parametrize("flag, value", [("--max-flats", "-5"), ("--max-atoms", "-1"),
                                             ("--max-atoms", "many")])
    def test_guardrail_must_be_a_non_negative_integer(self, flag, value):
        proc = run_cli("flats", "--input", "braid-3", flag, value)
        assert proc.returncode == 2
        assert f"argument {flag}: expected a non-negative integer, got '{value}'" in proc.stderr

    def test_json_nested_past_the_recursion_limit(self, tmp_path):
        # json.dumps cannot encode a certificate this deep, so it is spelled out
        depth = 3000
        cert = tmp_path / "cert.json"
        cert.write_text('{"kind": "modular-coatom", "coatom": [0], "child": ' * depth
                        + '{"kind": "empty"}' + "}" * depth)
        assert_invalid_input(run_cli("verify", "--input", "pg-2-2", "--certificate", str(cert)))
        data = tmp_path / "input.json"
        data.write_text("[" * 5000 + "]" * 5000)
        assert_invalid_input(run_cli("charpoly", "--input", str(data)))

    def test_unwritable_output(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        proc = run_cli("flats", "--input", "braid-4", "--output", str(target))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input(self, tmp_path, case):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(MALFORMED_INPUTS[case]))
        assert_invalid_input(run_cli("charpoly", "--input", str(f)))

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate(self, tmp_path, case):
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(MALFORMED_CERTIFICATES[case]))
        assert_invalid_input(run_cli("verify", "--input", "pg-2-2", "--certificate", str(f)))


# the atom count of every fixed generator name and of one input of each
# pattern family
CAPPED_INPUTS = {
    "example-7": 7, "example-13": 13, "ziegler-11": 11, "ziegler-19": 19,
    "bowtie-lift-9": 9, "bowtie": 8, "bowtie-loops": 13,
    "braid-4": 6, "bn-3": 9, "dn-4": 12, "pg-2-3": 13, "fish-z3": 5, "k-4-sign": 12,
    "kl-3-z3": 12,
}


class TestMaxAtomsReachesConstructors:
    @pytest.mark.parametrize("name", sorted(CAPPED_INPUTS))
    def test_every_generator_meets_the_cap(self, name, capsys):
        assert set(_FIXED) <= set(CAPPED_INPUTS)
        atoms = CAPPED_INPUTS[name]
        assert cli.main(["charpoly", "--input", name, "--max-atoms", str(atoms - 1)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"{atoms} atoms exceeds the limit of {atoms - 1}" in err
        assert cli.main(["charpoly", "--input", name, "--max-atoms", str(atoms)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["atoms"] == atoms

    def test_projective_plane_over_gf5(self):
        result = run_json("charpoly", "--input", "pg-2-5", "--max-atoms", "40")["result"]
        assert result["atoms"] == 31
        assert result["charpoly"] == IntPolynomial.from_roots([1, 5, 25]).to_json()
        proc = run_cli("charpoly", "--input", "pg-2-5", "--max-atoms", "30")
        assert proc.returncode == 3 and "limit of 30" in proc.stderr

    @pytest.mark.parametrize("model, atoms, roots",
                             [("frame", 33, [1, 12, 20]), ("lift", 34, [1, 11, 22])])
    def test_gain_graph_models(self, model, atoms, roots):
        result = run_json("charpoly", "--input", "k-3-z11", "--model", model,
                          "--max-atoms", "40")["result"]
        assert result["atoms"] == atoms
        assert result["charpoly"] == IntPolynomial.from_roots(roots).to_json()

    def test_realize(self):
        # K8 with trivial gains has 28 edges
        proc = run_cli("realize", "--input", "k-8-trivial", "--field", "q")
        assert proc.returncode == 3
        arr = run_json("realize", "--input", "k-8-trivial", "--field", "q",
                       "--max-atoms", "28")["result"]["arrangement"]
        assert len(arr["forms"]) == 28


class TestCorpusCommand:
    def test_corpus_self_check(self):
        report = run_json("corpus")
        assert report["result"]["ok"] is True
        members = report["result"]["members"]
        assert sorted(members) == sorted(corpus_names())
        assert all(entry["ok"] for entry in members.values())

    def test_unsaturated_chain_fact_fails(self, monkeypatch, capsys):
        # ranks 1 then 3: every flat is modular, but the chain skips rank 2
        real = cli.corpus_facts

        def facts(name):
            out = real(name)
            if name == "bowtie-lift-9":
                out["chain"] = [[0], [0, 1, 2, 3, 4]]
            return out

        monkeypatch.setattr(cli, "corpus_facts", facts)
        assert cli.main(["corpus"]) == 4
        report = json.loads(capsys.readouterr().out)
        member = report["result"]["members"]["bowtie-lift-9"]
        assert member["ok"] is False
        assert member["checked"]["chain"] is None

    def test_nonmodular_fact_that_is_not_a_flat_fails_its_member(self, monkeypatch, capsys):
        # [0, 1, 2] spans fish-sign, so it is not a flat; only this member fails
        real = cli.corpus_facts

        def facts(name):
            out = real(name)
            if name == "fish-sign":
                out["nonmodular_flat"] = [0, 1, 2]
            return out

        monkeypatch.setattr(cli, "corpus_facts", facts)
        assert cli.main(["corpus"]) == 4
        members = json.loads(capsys.readouterr().out)["result"]["members"]
        assert members["fish-sign"]["ok"] is False
        assert members["fish-sign"]["checked"]["nonmodular_flat"] is None
        assert all(entry["ok"] for name, entry in members.items() if name != "fish-sign")
