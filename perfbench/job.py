"""One job: the certify pipeline on one input, through the public API.

enumerate_flats -> charpoly -> modular_flats -> is_round ->
supersolvable_chain -> divisional_flag -> find_modular_joins with
brylawski_identity_check on each join -> me_certify -> verify_certificate on
every certificate found; with `tamper`, one deterministic tamper of each
certificate must then be rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import modext
from modext.certificates import (
    ChainCertificate,
    DivisionalFlag,
    EmptyCertificate,
    FlagCertificate,
    ModularCoatomCertificate,
    ModularJoinCertificate,
)

PIPELINE = ("enumerate_flats", "modular_flats", "is_round", "supersolvable_chain",
            "divisional_flag", "find_modular_joins", "brylawski_identity_check",
            "me_certify", "verify_certificate")


def public_api() -> SimpleNamespace:
    """The pipeline functions, looked up on the package's public surface."""
    return SimpleNamespace(**{name: getattr(modext, name) for name in PIPELINE})


@dataclass(frozen=True)
class Verdict:
    atoms: int
    flats: int
    cover_edges: int
    charpoly: tuple
    modular: int
    round: bool
    chain_steps: tuple | None   # atoms added at each step of the modular chain
    flag_roots: tuple | None
    joins: int
    me: bool
    verified: int               # genuine certificates accepted
    tampered_rejected: int
    failures: tuple             # broken claims; empty on a correct run


def certify(m, api, tamper: bool) -> Verdict:
    lat = api.enumerate_flats(m)
    chi = lat.charpoly()
    mods = api.modular_flats(m, lattice=lat)
    rnd = api.is_round(m, lattice=lat)
    chain = api.supersolvable_chain(m, lattice=lat)
    flag = api.divisional_flag(m, lattice=lat)
    joins = api.find_modular_joins(m, lattice=lat)
    for d in joins:
        api.brylawski_identity_check(m, d, lattice=lat)
    me = api.me_certify(m, lattice=lat)

    certs = [c for c in (chain, me) if c is not None]
    if flag is not None:
        certs.append(FlagCertificate(flag))
    failures = []
    verified = rejected = 0
    for cert in certs:
        if api.verify_certificate(m, cert, lattice=lat).ok:
            verified += 1
        else:
            failures.append(f"genuine {type(cert).__name__} rejected")
        if tamper:
            if api.verify_certificate(m, tampered(cert), lattice=lat).ok:
                failures.append(f"tampered {type(cert).__name__} accepted")
            else:
                rejected += 1

    steps = None
    if chain is not None:
        steps = tuple((hi & ~lo).bit_count() for lo, hi in zip(chain.flats, chain.flats[1:]))
    return Verdict(
        atoms=m.n,
        flats=len(lat),
        cover_edges=sum(len(cs) for cs in lat.covers.values()),
        charpoly=tuple(chi.coeffs),
        modular=len(mods),
        round=bool(rnd),
        chain_steps=steps,
        flag_roots=None if flag is None else tuple(flag.quotient_roots),
        joins=len(joins),
        me=me is not None,
        verified=verified,
        tampered_rejected=rejected,
        failures=tuple(failures),
    )


def tampered(cert):
    """A deterministic broken copy of a certificate.

    Chain: its first two proper flats swap places, so the chain goes down.
    Flag: the first quotient root is off by one, so a division step fails.
    ME: the top step's first child is replaced by the empty certificate,
    which only the empty flat admits.
    """
    if isinstance(cert, ChainCertificate):
        f = list(cert.flats)
        f[1], f[2] = f[2], f[1]
        return ChainCertificate(tuple(f))
    if isinstance(cert, FlagCertificate):
        roots = list(cert.flag.quotient_roots)
        roots[0] += 1
        return FlagCertificate(DivisionalFlag(cert.flag.flats, tuple(roots)))
    if isinstance(cert, ModularCoatomCertificate):
        return ModularCoatomCertificate(cert.coatom, EmptyCertificate())
    if isinstance(cert, ModularJoinCertificate):
        return ModularJoinCertificate(cert.e1, cert.e2, cert.x,
                                      EmptyCertificate(), cert.child2)
    raise TypeError(f"cannot tamper with {cert!r}")
