"""``record`` against the reference it replaces: the same class bodies under
``dataclasses.dataclass(frozen=True)`` must bind, compare, hash, print and refuse
changes alike."""

import dataclasses

import pytest

from partialflow import ChordReading, DecisionBoundary, PipeGeometry, RunConfig, default_config
from partialflow._record import record

REFERENCE = dataclasses.dataclass(frozen=True)


def make(decorate):
    """Fresh copies of two classes with equal field lists, built by ``decorate``,
    and the list that their ``__post_init__`` appends each record's fields to."""
    seen = []

    @decorate
    class Reading:
        chord_id: str
        t_up_s: float
        t_down_s: float = 2.0
        scale: float = 1.0

        def __post_init__(self):
            seen.append((self.chord_id, self.t_up_s, self.t_down_s, self.scale))
            if self.t_up_s < 0:
                raise ValueError(f"negative t_up_s {self.t_up_s!r}")

        @property
        def span_s(self):
            return self.t_down_s - self.t_up_s

    @decorate
    class Echo:
        chord_id: str
        t_up_s: float
        t_down_s: float = 2.0
        scale: float = 1.0

    return Reading, Echo, seen


@pytest.fixture
def both():
    return make(record), make(REFERENCE)


def build(cls, args, kwargs):
    try:
        return cls(*args, **kwargs)
    except Exception as exc:  # compared by type against the reference's
        return type(exc)


BINDINGS = [
    (("a", 1.0), {}),
    (("a", 1.0, 3.0), {}),
    (("a", 1.0, 3.0, 4.0), {}),
    ((), {"chord_id": "a", "t_up_s": 1.0}),
    ((), {"scale": 5.0, "t_up_s": 1.0, "chord_id": "a"}),
    (("a",), {"scale": 5.0, "t_up_s": 1.0}),
    (("a", 1.0, 3.0), {"scale": 5.0}),
    (("a", -1.0), {}),  # __post_init__ raises ValueError
    ((), {}),  # missing both required fields
    (("a",), {"t_down_s": 3.0}),  # missing t_up_s
    (("a", 1.0, 3.0, 4.0, 5.0), {}),  # one positional too many
    (("a", 1.0), {"chord_id": "b"}),  # chord_id twice
    (("a", 1.0, 3.0), {"t_down_s": 3.0}),  # t_down_s twice
    (("a", 1.0), {"unknown": 1}),
]


@pytest.mark.parametrize("args, kwargs", BINDINGS)
def test_binding_defaults_and_post_init_match_the_reference(both, args, kwargs):
    (cls, _, seen), (ref_cls, _, ref_seen) = both
    got, want = build(cls, args, kwargs), build(ref_cls, args, kwargs)
    if isinstance(want, type):
        assert got is want and want in (TypeError, ValueError)
    else:
        assert vars(got) == vars(want) and list(vars(got)) == list(vars(want))
        assert repr(got) == repr(want) and got.span_s == want.span_s
    assert seen == ref_seen  # __post_init__ ran once, after every field was set


def test_errors_name_the_fields():
    Reading, _, _ = make(record)
    with pytest.raises(TypeError, match=r"Reading\(\) takes the fields \(chord_id, t_up_s, "):
        Reading("a", unknown=1)


def test_equality_and_hash_match_the_reference(both):
    for cls, echo, _ in both:
        a = cls("a", 1.0)
        assert a == cls("a", 1.0) == cls(t_up_s=1.0, chord_id="a", scale=1.0)
        assert hash(a) == hash(cls("a", 1.0, scale=1.0)) == hash(("a", 1.0, 2.0, 1.0))
        assert a != cls("a", 1.0, 2.5) and a != cls("b", 1.0)
        assert a != echo("a", 1.0) and echo("a", 1.0) != a  # equal values, another class
        assert a != ("a", 1.0, 2.0, 1.0) and (a == object()) is False
        assert len({a, cls("a", 1.0), echo("a", 1.0)}) == 2


def test_nan_fields_compare_by_identity_like_the_reference(both):
    nan = float("nan")
    for cls, _, _ in both:
        assert cls("a", nan) == cls("a", nan)  # the same nan object
        assert cls("a", nan) != cls("a", float("nan"))


@pytest.mark.parametrize("change", [
    lambda r: setattr(r, "t_up_s", 5.0),
    lambda r: setattr(r, "extra", 5.0),
    lambda r: delattr(r, "chord_id"),
], ids=["assign_field", "assign_new", "delete_field"])
def test_records_are_immutable_like_the_reference(both, change):
    for cls, _, _ in both:
        r = cls("a", 1.0)
        with pytest.raises(AttributeError):
            change(r)
        assert vars(r) == {"chord_id": "a", "t_up_s": 1.0, "t_down_s": 2.0, "scale": 1.0}


def test_package_records():
    assert repr(PipeGeometry(0.25)) == "PipeGeometry(diameter_m=0.25)"
    assert repr(ChordReading("a", 1e-4, 2e-4)) == (
        "ChordReading(chord_id='a', t_up_s=0.0001, t_down_s=0.0002)")
    assert not dataclasses.is_dataclass(PipeGeometry)
    # records are immutable, so one default instance is safely shared
    config = default_config()
    assert config.boundary is RunConfig.boundary == DecisionBoundary()
    assert config == default_config() and hash(config) == hash(default_config())
