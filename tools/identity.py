#!/usr/bin/env python3
"""Three SHA-256 digests that a refactor of the lattice or the pipeline
must leave unchanged.

    python3 tools/identity.py

corpus: one digest over the repr of, per corpus member in corpus order, its
name, levels, covers items in order, atom_index, sorted mobius() items and
charpoly() coefficients, then the coefficients of interval_charpoly(b, t)
for every comparable pair b <= t of every member, in (rank, lex) order.

modular: the corpus digest, extended by the repr of
modular_flats_in_context(lat, ctx) for every flat ctx of every member, in
(rank, lex) order: the prover's modular verdicts in every context, not
only in the top and in the contexts that the searches reach.

verdicts: one digest over the repr of perfbench/job.py's certify verdict,
tampering on, for every job of the three benchmark workloads at seeds 1-3.

modext is imported from src/ and perfbench/ from the checkout that holds
this script, so running the script of another checkout digests that code.
Stdlib only; it writes nothing.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from modext import enumerate_flats  # noqa: E402
from modext.corpus import corpus_matroid, corpus_names  # noqa: E402
from modext.modularity import modular_flats_in_context  # noqa: E402
from perfbench import inputs, job  # noqa: E402

WORKLOADS = ("large-linear", "large-graph", "census")
SEEDS = (1, 2, 3)


def corpus_digest() -> tuple:
    """(digest, comparable pairs, extended digest, contexts) over the
    corpus lattices."""
    h = hashlib.sha256()
    lattices = []
    for name in corpus_names():
        lat = enumerate_flats(corpus_matroid(name))
        lattices.append(lat)
        h.update(repr((name, lat.levels, list(lat.covers.items()), lat.atom_index,
                       sorted(lat.mobius().items()), lat.charpoly().coeffs)).encode())
    pairs = 0
    for lat in lattices:
        for b in lat.flats():
            for t in lat.flats():
                if b & t == b:
                    h.update(repr(lat.interval_charpoly(b, t).coeffs).encode())
                    pairs += 1
    digest = h.hexdigest()
    contexts = 0
    for lat in lattices:
        for ctx in lat.flats():
            h.update(repr(modular_flats_in_context(lat, ctx)).encode())
            contexts += 1
    return digest, pairs, h.hexdigest(), contexts


def verdicts_digest() -> tuple:
    """(digest, jobs) over the certify verdicts of the benchmark inputs."""
    h = hashlib.sha256()
    api = job.public_api()
    jobs = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for _, spec in inputs.generate(workload, seed):
                h.update(repr(job.certify(inputs.build(spec), api, True)).encode())
                jobs += 1
    return h.hexdigest(), jobs


def main():
    digest, pairs, extended, contexts = corpus_digest()
    print(f"corpus   sha256:{digest}  ({len(corpus_names())} members, {pairs} intervals)")
    print(f"modular  sha256:{extended}  (corpus, then {contexts} contexts)")
    digest, jobs = verdicts_digest()
    print(f"verdicts sha256:{digest}  ({jobs} jobs)")


if __name__ == "__main__":
    main()
