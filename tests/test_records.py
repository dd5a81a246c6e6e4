"""The frozen record classes: constructor, repr, equality, hash, immutability.

The repr texts were pinned while the records were still frozen dataclasses;
they must not change.
"""

import pickle
from fractions import Fraction

import pytest

from tworoman import (EccdSet, FamilySpec, Labeling, OptimalityCertificate, ParseResult,
                      Patch, PatchSpec, PatternReport, SolveOptions, SolveResult,
                      SolveStats, TilingPattern, ValidationReport, build_graph)

P3 = build_graph(3, [(0, 1), (1, 2)])
P5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
LAB3 = Labeling(P3, (0, 2, 0))
LAB5 = Labeling(P5, (0, 2, 0, 2, 0))
STATS = SolveStats(1, 0.5, "eccd")

# (class, positional arguments, pinned repr)
CASES = [
    (FamilySpec, ("cycle", (5,)), "FamilySpec(kind='cycle', params=(5,))"),
    (ParseResult, (P3, LAB3, ("w",)),
     "ParseResult(graph=Graph(order=3, edges=2), labeling=Labeling(graph=Graph(order=3,"
     " edges=2), labels=(0, 2, 0)), warnings=('w',))"),
    (Labeling, (P3, (0, 2, 0)), "Labeling(graph=Graph(order=3, edges=2), labels=(0, 2, 0))"),
    (ValidationReport, (False, 2, (0, 2)),
     "ValidationReport(valid=False, attack_n=2, witness=(0, 2))"),
    (SolveOptions, (),
     "SolveOptions(attack_n=2, max_twos=None, two_mode='any', method='auto',"
     " enumerate_all=False)"),
    (SolveStats, (1, 0.5, "eccd"),
     "SolveStats(nodes=1, elapsed=0.5, method='eccd', frontier_width=None)"),
    (SolveResult, (2, LAB3, 1, STATS),
     "SolveResult(gamma=2, labeling=Labeling(graph=Graph(order=3, edges=2),"
     " labels=(0, 2, 0)), optimal_number=1, stats=SolveStats(nodes=1, elapsed=0.5,"
     " method='eccd', frontier_width=None), all_minimum=None, feasible_two_counts=None)"),
    (EccdSet, (((0, 1, 2, 3, 4),),), "EccdSet(paths=((0, 1, 2, 3, 4),))"),
    (OptimalityCertificate, ((0, 1, 2, 3, 4), LAB5),
     "OptimalityCertificate(path=(0, 1, 2, 3, 4), labeling=Labeling(graph=Graph(order=5,"
     " edges=4), labels=(0, 2, 0, 2, 0)))"),
    (PatchSpec, ("square", 3, 4), "PatchSpec(kind='square', width=3, height=4, wrap='open')"),
    (Patch, (PatchSpec("square", 3, 1), P3),
     "Patch(spec=PatchSpec(kind='square', width=3, height=1, wrap='open'),"
     " graph=Graph(order=3, edges=2))"),
    (TilingPattern, ("square", 7, 1, 2, (2, 0, 0, 2, 0, 0, 0)),
     "TilingPattern(kind='square', modulus=7, x_coeff=1, y_coeff=2,"
     " labels=(2, 0, 0, 2, 0, 0, 0))"),
    (PatternReport, (7, 7, True, Fraction(4, 7), 28, 49),
     "PatternReport(width=7, height=7, valid=True, density=Fraction(4, 7), weight=28,"
     " order=49, witness=None)"),
]

IDS = [case[0].__name__ for case in CASES]
ALL_FIELDS_DEFAULTED = (SolveOptions, EccdSet)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_repr(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equal_instances_hash_alike(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_never_equal_to_other_class(cls, args, text):
    twin = type(cls.__name__, (cls,), {})
    inst = cls(*args)
    values = tuple(getattr(inst, name) for name in cls.__match_args__)
    assert inst != twin(*args) and twin(*args) != inst
    assert inst != values and values != inst


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, args, text):
    inst = cls(*args)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(inst, name, None)
        with pytest.raises(AttributeError):
            delattr(inst, name)
    with pytest.raises(AttributeError):
        inst.extra = 1
    assert inst == cls(*args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_bad_arguments(cls, args, text):
    inst = cls(*args)
    full = [getattr(inst, name) for name in cls.__match_args__]
    with pytest.raises(TypeError):
        cls(*args, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*full, None)
    if cls in ALL_FIELDS_DEFAULTED:
        assert isinstance(cls(), cls)
    else:
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_keywords_and_pickle(cls, args, text):
    inst = cls(*args)
    names = cls.__match_args__
    assert cls(**dict(zip(names, args))) == inst
    assert pickle.loads(pickle.dumps(inst)) == inst


def test_positional_class_patterns():
    match STATS:
        case SolveStats(nodes, elapsed, method, width):
            assert (nodes, elapsed, method, width) == (1, 0.5, "eccd", None)
        case _:
            raise AssertionError("SolveStats pattern did not match")
    match LAB3:
        case Labeling(graph, (0, 2, 0)):
            assert graph is P3
        case _:
            raise AssertionError("Labeling pattern did not match")


def test_post_init_checks_run():
    with pytest.raises(ValueError):
        Labeling(P3, (0, 2))
    with pytest.raises(ValueError):
        SolveOptions(attack_n=0)
