"""Every record of the package behaves as the frozen dataclass of its fields
would: construction, repr, equality, hashing, immutability and the
``_fields``/``_asdict``/``_replace`` reads that replace dataclasses'."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import stochvi
from stochvi import constants as C
from stochvi import experiments as E
from stochvi.errors import ConfigError, NumericalError
from stochvi.records import Record
from stochvi.sampling import SamplingScheme
from stochvi.solvers import SwitchingSchedule
from stochvi.verify import CheckReport

from test_operators import random_game

GAME = random_game(2, 1, 1, seed=3)

# One valid instance per record class, its fields in declaration order; a
# record that serves more than one rate statement has one instance for each,
# named in CASE_CLASS.
EXAMPLES = {
    "SamplingScheme": dict(n=3, batch_size=2, probs=None),
    "ConstantSchedule": dict(alpha=0.1, gamma=0.0),
    "SgdaSwitchingSchedule": SwitchingSchedule.sgda(ell_xi=2.0, mu=0.5)._asdict(),
    "ScoSwitchingSchedule": SwitchingSchedule.sco(ell_xi=2.0, cal_l_h=3.0, mu=0.5,
                                                  mu_h=0.25)._asdict(),
    "RunTrace": dict(seed=4, dist_sq=(1.0, 0.25), final_x=(0.5, -0.5), diverged=False,
                     iterates=None),
    "GameConstants": dict(n=2, mu=0.5, ell_i=(1.0, 2.0), ell=1.5, ell_max=2.0, sigma1_sq=0.75),
    "ECConstants": dict(ell_xi=2.0, sigma_sq=0.1),
    "HamiltonianConstants": dict(mu_h=0.1, l_h=1.0, cal_l_h=2.0, sigma_h_sq=0.3),
    "OptimalMinibatch": dict(b_star_real=1.5, b_star=2),
    "GameGenConfig": dict(n=2, d1=2, d2=3, mu_a=0.5, l_a=1.0, mu_b=0.0, l_b=1.0, mu_c=0.5,
                          l_c=2.0, seed=7),
    "GameProfile": dict(game=GAME, scheme=SamplingScheme(2, 1), base=None),
    "MethodAggregate": dict(method="sgda", mean=(1.0, 0.5), ci_low=(1.0, 0.4),
                            ci_high=(1.0, 0.6), running=(3, 3), diverged=((1, 1),)),
    "CheckReport": dict(name="ec", worst_margin=-0.5, tolerance=1e-9, points=3,
                        witness=(0.0, 1.0), details={"radius": 1.0}),
}


def _record_classes():
    """{name: class} of every record with fields that the package defines."""
    found = {}
    for info in pkgutil.iter_modules(stochvi.__path__):
        module = importlib.import_module(f"stochvi.{info.name}")
        for name, value in vars(module).items():
            if (inspect.isclass(value) and issubclass(value, Record) and value._fields
                    and value.__module__ == module.__name__):
                found[name] = value
    return found


RECORDS = _record_classes()

# {example name: record class name} where the two differ.
CASE_CLASS = {"SgdaSwitchingSchedule": "SwitchingSchedule",
              "ScoSwitchingSchedule": "SwitchingSchedule"}


def _case(name):
    """(record class, field values) of the example ``name``."""
    return RECORDS[CASE_CLASS.get(name, name)], EXAMPLES[name]


def _twin(cls):
    """The frozen dataclass of ``cls``'s fields, named as ``cls`` is."""
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def test_every_record_has_an_example():
    assert sorted(RECORDS) == sorted({CASE_CLASS.get(n, n) for n in EXAMPLES})
    assert len(RECORDS) == 12


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_constructor_fields_and_asdict_share_one_order(name):
    cls, kwargs = _case(name)
    annotated = [f for klass in reversed(cls.__mro__)
                 for f in vars(klass).get("__annotations__", {}) if klass is not Record]
    assert list(cls._fields) == annotated == list(kwargs)
    by_position = cls(*kwargs.values())
    assert list(by_position._asdict()) == list(cls._fields)
    assert by_position._asdict() == kwargs
    assert all(getattr(by_position, f) is kwargs[f] for f in cls._fields)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_repr_is_the_dataclass_repr(name):
    cls, kwargs = _case(name)
    assert repr(cls(**kwargs)) == repr(_twin(cls)(**kwargs))
    assert str(cls(**kwargs)) == repr(cls(**kwargs))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_equality_and_hash_read_the_fields(name):
    cls, kwargs = _case(name)
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and not a != b
    twin = _twin(cls)(**kwargs)
    assert a.__eq__(twin) is NotImplemented and a != twin
    assert a.__eq__(tuple(kwargs.values())) is NotImplemented
    values = tuple(kwargs.values())
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


def test_equality_tells_one_field_apart():
    cls, kwargs = _case("ScoSwitchingSchedule")
    base = cls(**kwargs)
    for name in base._fields:
        other = base._replace(**{name: getattr(base, name) + 1})
        assert other != base and not other == base
        assert other._replace(**{name: getattr(base, name)}) == base
    # a subclass with the same fields is another record
    sub = type("Sub", (RECORDS["ECConstants"],), {})
    assert sub(1.0, 0.0) != RECORDS["ECConstants"](1.0, 0.0)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_are_immutable(name):
    cls, kwargs = _case(name)
    rec = cls(**kwargs)
    for field in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(rec, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(rec, field)
    assert rec._asdict() == kwargs


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_bad_arguments_are_a_type_error(name):
    cls, kwargs = _case(name)
    first = cls._fields[0]
    rest = {f: v for f, v in kwargs.items() if f != first}
    with pytest.raises(TypeError, match=f"missing field {first!r}"):
        cls(**rest)
    with pytest.raises(TypeError, match="unknown or repeated field 'bogus'"):
        cls(**kwargs, bogus=1)
    with pytest.raises(TypeError, match=f"unknown or repeated field {first!r}"):
        cls(kwargs[first], **kwargs)
    with pytest.raises(TypeError, match=f"takes {len(cls._fields)} fields"):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError, match="unknown or repeated field 'bogus'"):
        cls(**kwargs)._replace(bogus=1)


def test_defaults_fill_the_trailing_fields():
    assert SamplingScheme(4, 2) == SamplingScheme(4, 2, None)
    trace = RECORDS["RunTrace"](0, (1.0,), (0.0,))
    assert trace.diverged is False and trace.iterates is None
    assert RECORDS["ConstantSchedule"](0.5).gamma == 0.0


def test_post_init_still_validates():
    with pytest.raises(ConfigError, match="need n >= 1, got 0"):
        SamplingScheme(0)
    with pytest.raises(ConfigError, match="step sizes must be finite"):
        RECORDS["ConstantSchedule"](-1.0)
    with pytest.raises(ConfigError, match="minibatch size"):
        SamplingScheme(3, 2)._replace(batch_size=4)
    with pytest.raises(ConfigError, match="n, d1, d2"):
        E.GameGenConfig(**{**EXAMPLES["GameGenConfig"], "d1": 0})


def test_a_non_finite_constant_names_the_record_as_the_dataclass_did():
    kwargs = {**EXAMPLES["GameConstants"], "ell": float("inf")}
    twin = _twin(C.GameConstants)(**kwargs)
    with pytest.raises(NumericalError) as err:
        C.GameConstants(**kwargs)
    assert str(err.value) == f"GameConstants are not finite: {twin!r}"
    with pytest.raises(NumericalError, match=r"^ECConstants are not finite: ECConstants\("
                       r"ell_xi=1\.0, sigma_sq=nan\)$"):
        C.ECConstants(1.0, float("nan"))


def test_default_check_reports_do_not_share_details():
    @dataclasses.dataclass
    class CheckReportTwin:
        name: str
        worst_margin: float
        tolerance: float
        points: int
        witness: object | None = None
        details: dict = dataclasses.field(default_factory=dict)

    CheckReportTwin.__qualname__ = "CheckReport"
    a, b = CheckReport("a", 0.0, 0.0, 1), CheckReport("a", 0.0, 0.0, 1)
    assert a.details == {} and a.details is not b.details
    assert a == b
    a.details["seen"] = True
    assert b.details == {}
    assert repr(b) == repr(CheckReportTwin("a", 0.0, 0.0, 1))


def test_profile_constants_are_computed_once(monkeypatch):
    calls = []
    compute = C.game_constants
    monkeypatch.setattr(C, "game_constants", lambda game: calls.append(game) or compute(game))
    prof = E.GameProfile(GAME, SamplingScheme.single_element(2))
    before = (repr(prof), hash(prof), prof._asdict())
    first = prof.game_constants
    assert prof.game_constants is first and prof.ec is prof.ec
    full = E.GameProfile(GAME, SamplingScheme.full_batch(2), prof)
    assert full.game_constants is first
    assert calls == [GAME]
    assert (repr(prof), hash(prof), prof._asdict()) == before
    assert prof == E.GameProfile(GAME, SamplingScheme.single_element(2))


def test_asdict_is_shallow_and_replace_builds_anew():
    arr = np.arange(3.0)
    trace = RECORDS["RunTrace"](0, arr, arr)
    assert trace._asdict()["dist_sq"] is arr
    again = trace._replace(seed=5)
    assert again.seed == 5 and again.dist_sq is arr and trace.seed == 0


def test_a_subclass_adds_fields_after_its_bases_as_a_dataclass_does():
    # a re-annotated field keeps its place and takes the new default
    class Point(Record):
        x: float
        y: float = 0.0

    class Point3(Point):
        z: float = 0.0
        y: float = 1.0

    @dataclasses.dataclass(frozen=True)
    class Point3Twin:
        x: float
        y: float = 1.0
        z: float = 0.0

    Point3Twin.__qualname__ = Point3.__qualname__
    assert Point._fields == ("x", "y") and Point3._fields == ("x", "y", "z")
    assert repr(Point3(5.0)) == repr(Point3Twin(5.0))
    assert repr(Point3(5.0)) == ("test_a_subclass_adds_fields_after_its_bases_as_a_dataclass_"
                                 "does.<locals>.Point3(x=5.0, y=1.0, z=0.0)")
    assert Point3(5.0) != Point(5.0, 1.0) and Point(5.0) == Point(5.0, 0.0)
