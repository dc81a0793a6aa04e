"""Value semantics of the immutable records: certificates, reports, witnesses.

Every record compares and hashes by its fields, prints as
`Name(field=value, ...)`, refuses assignment and deletion, and survives
pickle and deepcopy, exactly as a frozen dataclass would.
"""

import copy
import pickle

import pytest

from modext.certificates import (ChainCertificate, DivisionalFlag,
                                 EmptyCertificate, FlagCertificate,
                                 ModularCoatomCertificate,
                                 ModularJoinCertificate)
from modext.gaingraph import GainEdge
from modext.joins import JoinDecomposition
from modext.modularity import RoundnessVerdict
from modext.verify import VerificationReport

CHAIN = ChainCertificate((0, 1, 3))
FLAG = DivisionalFlag((0, 1, 3), (1, 2))

# (class, fields in declaration order, the repr a frozen dataclass prints)
SAMPLES = [
    (DivisionalFlag, {"flats": (0, 1, 3), "quotient_roots": (1, 2)},
     "DivisionalFlag(flats=(0, 1, 3), quotient_roots=(1, 2))"),
    (EmptyCertificate, {}, "EmptyCertificate()"),
    (ModularCoatomCertificate, {"coatom": 3, "child": CHAIN},
     "ModularCoatomCertificate(coatom=3, child=ChainCertificate(flats=(0, 1, 3)))"),
    (ModularJoinCertificate,
     {"e1": 3, "e2": 6, "x": 2, "child1": CHAIN, "child2": EmptyCertificate()},
     "ModularJoinCertificate(e1=3, e2=6, x=2, "
     "child1=ChainCertificate(flats=(0, 1, 3)), child2=EmptyCertificate())"),
    (FlagCertificate, {"flag": FLAG},
     "FlagCertificate(flag=DivisionalFlag(flats=(0, 1, 3), quotient_roots=(1, 2)))"),
    (ChainCertificate, {"flats": (0, 1, 3)}, "ChainCertificate(flats=(0, 1, 3))"),
    (GainEdge, {"u": 0, "v": 2, "gain": 1}, "GainEdge(u=0, v=2, gain=1)"),
    (JoinDecomposition, {"e1": 3, "e2": 6, "x": 2, "x_round": True},
     "JoinDecomposition(e1=3, e2=6, x=2, x_round=True)"),
    (RoundnessVerdict, {"round": False, "witness": (3, 6)},
     "RoundnessVerdict(round=False, witness=(3, 6))"),
    (VerificationReport, {"ok": False, "failures": (("$", "bad coatom"),)},
     "VerificationReport(ok=False, failures=(('$', 'bad coatom'),))"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, fields, text):
    a = cls(*fields.values())
    b = cls(**copy.deepcopy(fields))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1
    assert [getattr(a, name) for name in fields] == list(fields.values())
    assert repr(a) == repr(b) == text


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, fields, text):
    a = cls(**fields)
    twin = type(cls.__name__, (cls,), {})(**fields)
    assert a != twin and twin != a
    assert cls.__eq__(a, twin) is NotImplemented
    assert a != tuple(fields.values())
    for other, other_fields, _ in SAMPLES:
        if other is not cls:
            assert a != other(**other_fields)
    if fields:
        changed = dict(fields, **{next(iter(fields)): "changed"})
        assert a != cls(**changed)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, text):
    a = cls(**fields)
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_records_survive_pickle_and_copy(cls, fields, text):
    a = cls(**fields)
    for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(back) is cls
        assert back == a and hash(back) == hash(a) and repr(back) == text
        with pytest.raises(AttributeError):
            setattr(back, next(iter(fields), "extra"), 0)


def test_defaults():
    v = RoundnessVerdict(round=True)
    assert v.witness is None and v == RoundnessVerdict(True, None)
    assert repr(v) == "RoundnessVerdict(round=True, witness=None)"
    with pytest.raises(TypeError):
        RoundnessVerdict()
    with pytest.raises(TypeError):
        GainEdge(0, 1, 0, 2)
    with pytest.raises(TypeError):
        JoinDecomposition(1, 2, 0, x_ronud=True)
