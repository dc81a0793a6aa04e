"""Command-line interface: JSON in, JSON out, deterministic bytes.

Subcommands: charpoly, flats, modular-flats, round, supersolvable,
divflag, me-cert, joins, realize, verify, corpus.  Inputs are files or
named generators; results go to standard output (or --output) as one
JSON object per run with sorted keys.  Exit codes: 0 success, 2 invalid
input or unwritable --output, 3 guardrail breach, 4 failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .algebra import Field, IntPolynomial
from .arrangement import Arrangement
from .corpus import corpus_facts, corpus_matroid, corpus_names
from .certificates import ChainCertificate, certificate_from_json
from .divisional import divisional_flag
from .errors import InvalidInput, ModextError, TooLarge
from .gaingraph import GainGraph, frame_matroid, lift_matroid, \
    realize_frame_arrangement, realize_lift_arrangement
from .generators import named_input
from .joins import brylawski_identity_check, find_modular_joins, me_certify
from .lattice import DEFAULT_MAX_FLATS, enumerate_flats
from .matroid import DEFAULT_MAX_ATOMS, Matroid, atom_tuple, load_matroid, mask_of
from .modularity import (is_modular_flat, is_round, modular_coatoms_in_context,
                         modular_flats, supersolvable_chain)
from .verify import verify_certificate


def _limit(text: str) -> int:
    """A guardrail value: a non-negative integer, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modext",
        description="Exact matroid, gain-graph, and arrangement analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True,
                           help="JSON file or named generator")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--model", choices=("frame", "lift"), default="frame",
                       help="matroid model for gain-graph inputs")
        p.add_argument("--max-atoms", type=_limit, default=DEFAULT_MAX_ATOMS)
        p.add_argument("--max-flats", type=_limit, default=DEFAULT_MAX_FLATS)
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")
        return p

    add("charpoly", "characteristic polynomial")
    add("flats", "flat counts per rank")
    add("modular-flats", "list all modular flats")
    add("round", "roundness verdict with witness")
    add("supersolvable", "saturated modular chain, if any")
    add("divflag", "divisional flag, if any")
    add("me-cert", "modularly-extended certificate, if any")
    add("joins", "all modular join decompositions")
    p = add("realize", "realize a gain graph as an arrangement")
    p.add_argument("--field", default="q",
                   help="'q' for the rationals or 'gf<p>' for a prime field")
    p = add("verify", "replay a certificate against the input")
    p.add_argument("--certificate", required=True,
                   help="certificate JSON file to replay")
    add("corpus", "self-test every built-in example", needs_input=False)
    return parser


def parse_field(token: str) -> Field:
    t = token.strip().lower()
    if t in ("q", "rational", "rationals"):
        return Field.rational()
    for prefix in ("gf-", "gf(", "gf"):
        if t.startswith(prefix):
            digits = t[len(prefix):].rstrip(")")
            if digits.isdigit():
                return Field.gf(int(digits))
    if t.isdigit():
        return Field.gf(int(t))
    raise InvalidInput(f"cannot parse field {token!r}")


def load_input(spec: str, max_atoms: int):
    """Resolve --input: an existing JSON file, else a generator name."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise InvalidInput(f"cannot read {spec}: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidInput("input JSON must be an object")
        if "forms" in data:
            return Arrangement.from_json(data, max_atoms=max_atoms)
        if "group" in data and "edges" in data:
            return GainGraph.from_json(data)
        if "type" in data:
            return load_matroid(data, max_atoms=max_atoms)
        raise InvalidInput(
            "input JSON is neither an arrangement, a gain graph, nor a matroid")
    return named_input(spec, max_atoms)


def matroid_of(obj, model: str, max_atoms: int) -> Matroid:
    if isinstance(obj, Matroid):
        return obj
    if isinstance(obj, Arrangement):
        return obj.dependence_matroid()
    if isinstance(obj, GainGraph):
        build = lift_matroid if model == "lift" else frame_matroid
        return build(obj, max_atoms)
    raise InvalidInput(f"cannot derive a matroid from {type(obj).__name__}")


def _flats_list(flats) -> list:
    return [list(atom_tuple(f)) for f in flats]


def run_analysis(args, obj) -> tuple:
    """Dispatch one subcommand; returns (result dict, exit code)."""
    cmd = args.command
    if cmd == "realize":
        if not isinstance(obj, GainGraph):
            raise InvalidInput("realize needs a gain graph input")
        field = parse_field(args.field)
        if args.model == "lift":
            arr = realize_lift_arrangement(obj, field, args.max_atoms)
        else:
            arr = realize_frame_arrangement(obj, field, args.max_atoms)
        return {"arrangement": arr.to_json()}, 0

    m = matroid_of(obj, args.model, args.max_atoms)
    if m.n > args.max_atoms:
        raise TooLarge(f"{m.n} atoms exceeds the limit of {args.max_atoms}")

    if cmd == "verify":
        try:
            with open(args.certificate, "r", encoding="utf-8") as fh:
                cert = certificate_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise InvalidInput(f"cannot read certificate: {exc}") from exc
        lat = enumerate_flats(m, max_flats=args.max_flats)
        report = verify_certificate(m, cert, lattice=lat)
        if not report.ok:
            print(f"verification failed at {report.failures[0][0]}",
                  file=sys.stderr)
        return report.to_json(), 0 if report.ok else 4

    lat = enumerate_flats(m, max_flats=args.max_flats)
    if cmd == "charpoly":
        result = {"atoms": m.n, "rank": lat.rank,
                  "charpoly": lat.charpoly().to_json()}
        if isinstance(obj, Arrangement):
            result["dim"] = obj.dim
            shift = IntPolynomial([0] * (obj.dim - lat.rank) + [1])
            result["arrangement_charpoly"] = (lat.charpoly() * shift).to_json()
        return result, 0
    if cmd == "flats":
        counts = [len(level) for level in lat.levels]
        return {"atoms": m.n, "rank": lat.rank, "flats_per_rank": counts,
                "total": len(lat)}, 0
    if cmd == "modular-flats":
        mods = modular_flats(m, lattice=lat)
        return {"count": len(mods), "modular_flats": _flats_list(mods)}, 0
    if cmd == "round":
        verdict = is_round(m, lattice=lat)
        return verdict.to_json(), 0
    if cmd == "supersolvable":
        chain = supersolvable_chain(m, lattice=lat)
        return {"supersolvable": chain is not None,
                "chain": None if chain is None else chain.to_json()}, 0
    if cmd == "divflag":
        flag = divisional_flag(m, lattice=lat)
        return {"divisional": flag is not None,
                "flag": None if flag is None else flag.to_json()}, 0
    if cmd == "me-cert":
        cert = me_certify(m, lattice=lat)
        return {"me": cert is not None,
                "certificate": None if cert is None else cert.to_json()}, 0
    if cmd == "joins":
        joins = find_modular_joins(m, lattice=lat)
        out = []
        for d in joins:
            brylawski_identity_check(m, d, lattice=lat)
            entry = d.to_json()
            entry["identity_verified"] = True
            out.append(entry)
        return {"count": len(out), "joins": out}, 0
    raise InvalidInput(f"unknown command {cmd!r}")


def run_corpus(args) -> tuple:
    """Rebuild every named member and compare against its frozen facts."""
    members = {}
    all_ok = True
    for name in corpus_names():
        m = corpus_matroid(name)
        facts = corpus_facts(name)
        lat = enumerate_flats(m, max_flats=args.max_flats)
        checked = {"atoms": m.n, "rank": lat.rank}
        if "charpoly" in facts:
            checked["charpoly"] = lat.charpoly().to_json()
        if "flats" in facts:
            checked["flats"] = len(lat)
        if "supersolvable" in facts:
            checked["supersolvable"] = supersolvable_chain(m, lattice=lat) is not None
        if "me" in facts:
            checked["me"] = me_certify(m, lattice=lat) is not None
        if "divisional" in facts:
            checked["divisional"] = divisional_flag(m, lattice=lat) is not None
        if "round" in facts:
            checked["round"] = bool(is_round(m, lattice=lat))
        if "all_flats_modular" in facts:
            checked["all_flats_modular"] = len(modular_flats(m, lattice=lat)) == len(lat)
        if "modular_coatoms" in facts:
            checked["modular_coatoms"] = sum(
                1 for _ in modular_coatoms_in_context(lat, lat.top))
        if "nonmodular_flat" in facts:
            x = mask_of(facts["nonmodular_flat"])
            nonmodular = x in lat and not is_modular_flat(m, x, lattice=lat)
            checked["nonmodular_flat"] = facts["nonmodular_flat"] if nonmodular else None
        if "chain" in facts:
            flats = [mask_of(f) for f in facts["chain"]]
            chain = ChainCertificate((lat.bottom, *flats, lat.top))
            ok = verify_certificate(m, chain, lattice=lat).ok
            checked["chain"] = facts["chain"] if ok else None
        if "join_over" in facts:
            cert = me_certify(m, lattice=lat)
            got = (list(atom_tuple(cert.x))
                   if cert is not None and hasattr(cert, "x") else None)
            checked["join_over"] = got
        ok = all(checked.get(key) == facts[key] for key in facts)
        all_ok = all_ok and ok
        members[name] = {"ok": ok, "facts": facts, "checked": checked}
    return {"ok": all_ok, "members": members}, 0 if all_ok else 4


def emit(report: dict, output: str | None):
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "corpus":
            result, code = run_corpus(args)
            input_desc = "corpus"
        else:
            obj = load_input(args.input, args.max_atoms)
            result, code = run_analysis(args, obj)
            input_desc = args.input
        report = {
            "command": args.command,
            "input": input_desc,
            "result": result,
            "tool_version": __version__,
        }
        if args.timing:
            report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
        emit(report, args.output)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ModextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
