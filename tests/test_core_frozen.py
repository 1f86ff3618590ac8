"""The one constructor for hot frozen values (:mod:`repro.core.frozen`).

:func:`~repro.core.frozen.fast_init` replaces the dataclass-generated
``__init__`` of every frozen slots dataclass in the message, block, rank
and ordering modules.  These tests pin it against the ``__init__`` it
replaced, which the decorator keeps in ``DATACLASS_INITS``: the same
arguments must give equal objects with equal hash and repr, the same
pickle round-trip, the same ``ValueError`` for invalid input, and a
``FrozenInstanceError`` on assignment.  A structural test keeps a new
frozen class in those modules from falling back to the slow ``__init__``.
A :func:`~repro.core.frozen.derived` field (a message's ``size_bytes``) is
the one thing the reference does not fill; ``tests/test_message_sizes.py``
pins it against the size formulas instead.
"""

import dataclasses
import os
import pickle
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus import messages
from repro.core import block, frozen, ordering, rank
from repro.core.frozen import DATACLASS_INITS, DERIVED, derived, fast_init

MODULES = (messages, block, rank, ordering)


def frozen_slots_dataclasses(module):
    return [
        cls for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and "__slots__" in vars(cls)
    ]


DECORATED = [cls for module in MODULES for cls in frozen_slots_dataclasses(module)]

# ----------------------------------------------------------------- strategies
#: small ints, negatives included: Block and RankReport refuse those
ints = st.integers(min_value=-2, max_value=2**40)
floats = st.floats(allow_nan=False)
certificates = st.builds(
    rank.RankCertificate, st.integers(0, 2**20), st.integers(0, 200)
)
reports = st.builds(
    rank.RankReport, st.integers(0, 99), st.integers(0, 99), st.integers(0, 9),
    st.integers(0, 99), st.integers(0, 9), certificates,
)
blocks = st.builds(
    block.Block, st.integers(0, 9), st.integers(0, 99), st.integers(0, 99),
    st.tuples(st.integers(0, 9)), payload_digest=st.text(max_size=4),
)

#: field annotation -> values; a field type missing here fails the test,
#: so a new field type needs a strategy before its class is covered
VALUES = {
    "int": ints,
    "bool": st.booleans(),
    "float": floats,
    "str": st.text(max_size=6),
    "Tuple": st.tuples(st.integers(0, 9), st.text(max_size=2)),
    "Optional[int]": st.none() | ints,
    "Optional[float]": st.none() | floats,
    "RankCertificate": certificates,
    "Optional[RankCertificate]": st.none() | certificates,
    "Tuple[RankReport, ...]": st.lists(reports, max_size=3).map(tuple),
    "Block": blocks,
}


@st.composite
def calls(draw, cls):
    """``(args, kwargs)`` for ``cls``: a positional prefix, then keywords,
    each defaulted parameter present or omitted."""
    args, kwargs = [], {}
    positional = True
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        has_default = f.default is not dataclasses.MISSING or (
            f.default_factory is not dataclasses.MISSING
        )
        if has_default and draw(st.booleans()):
            positional = False  # omitted: every later argument is a keyword
            continue
        value = draw(VALUES[f.type])
        if positional and not (has_default and draw(st.booleans())):
            args.append(value)
        else:
            positional = False
            kwargs[f.name] = value
    return args, kwargs


def construct(init, cls, args, kwargs):
    """``(object, None)`` or ``(None, (exception type, message))``."""
    obj = object.__new__(cls)
    try:
        init(obj, *args, **kwargs)
    except ValueError as exc:
        return None, (type(exc), str(exc))
    return obj, None


def all_fields(obj):
    """Every field value, ``compare=False`` ones included, but the derived
    ones: the dataclass ``__init__`` leaves those unset."""
    return [getattr(obj, f.name) for f in dataclasses.fields(obj) if DERIVED not in f.metadata]


# ----------------------------------------------------------------- the tests
class TestStructure:
    def test_every_frozen_slots_dataclass_is_decorated(self):
        assert DECORATED, "no frozen slots dataclass found"
        missing = [cls.__qualname__ for cls in DECORATED if cls not in DATACLASS_INITS]
        assert missing == [], f"{missing} build through the dataclass __init__"

    def test_decorated_nowhere_else(self):
        decorated = {cls for cls in DATACLASS_INITS if cls.__module__.startswith("repro.")}
        assert decorated == set(DECORATED)
        homes = {module.__file__ for module in MODULES} | {frozen.__file__}
        package = os.path.dirname(os.path.dirname(frozen.__file__))
        for directory, _, files in os.walk(package):
            for name in files:
                path = os.path.join(directory, name)
                if name.endswith(".py") and path not in homes:
                    with open(path, encoding="utf-8") as handle:
                        assert "@fast_init" not in handle.read(), path

    def test_each_class_carries_its_own_init(self):
        # subclasses of InstanceMessage get theirs, not the base's
        for cls in DECORATED:
            assert cls.__init__ is not DATACLASS_INITS[cls]
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", DECORATED, ids=lambda cls: cls.__qualname__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_constructor_matches_the_dataclass_init(cls, data):
    args, kwargs = data.draw(calls(cls))
    fast, fast_error = construct(cls.__init__, cls, args, kwargs)
    reference, reference_error = construct(DATACLASS_INITS[cls], cls, args, kwargs)
    assert fast_error == reference_error
    if reference is None:
        return
    assert fast == reference
    assert all_fields(fast) == all_fields(reference)
    assert hash(fast) == hash(reference)
    assert repr(fast) == repr(reference)
    copy = pickle.loads(pickle.dumps(fast))
    assert copy == reference and all_fields(copy) == all_fields(reference)
    for f in dataclasses.fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(fast, f.name, getattr(fast, f.name))


class TestInvalidInput:
    """The ``__post_init__`` checks run, with the reference's messages."""

    @pytest.mark.parametrize(
        "cls,args",
        [
            (block.Block, (0, 1, -1)),
            (block.Block, (0, -1, 0)),
            (block.Block, (-1, 1, 0)),
            (rank.RankReport, (0, -1, 0, 1, 0)),
        ],
    )
    def test_same_value_error(self, cls, args):
        _, fast_error = construct(cls.__init__, cls, args, {})
        _, reference_error = construct(DATACLASS_INITS[cls], cls, args, {})
        assert fast_error is not None and fast_error == reference_error

    def test_missing_and_unknown_arguments_are_type_errors(self):
        with pytest.raises(TypeError):
            block.Block(0, 1)
        with pytest.raises(TypeError):
            block.Block(0, 1, 0, bogus=1)
        with pytest.raises(TypeError):
            block.Block(0, 1, 0, instance=0)


class TestFastInit:
    """The generator on shapes the hot modules do not use (yet)."""

    def test_defaults_factories_and_init_false(self):
        @fast_init
        @dataclass(frozen=True, slots=True)
        class Shape:
            a: int
            b: tuple = field(default_factory=lambda: (1,))
            c: int = field(init=False, default=7)
            d: list = field(init=False, default_factory=list)

        shape = Shape(1)
        assert (shape.a, shape.b, shape.c, shape.d) == (1, (1,), 7, [])
        assert Shape(1).d is not shape.d  # one factory call per construction
        assert Shape(1, (2,)) == Shape(a=1, b=(2,))

    def test_derived_field_is_computed_once_after_the_others(self):
        computed = []

        @fast_init
        @dataclass(frozen=True, slots=True)
        class Sum:
            a: int
            total: int = derived("_total")
            b: int = 2

            def _total(self):
                computed.append(self.a)
                return self.a + self.b

        value = Sum(1)
        assert value.total == 3 and computed == [1]
        assert value == Sum(1, 2) and hash(value) == hash(Sum(1, 2))
        assert repr(value).endswith("Sum(a=1, b=2)")
        with pytest.raises(FrozenInstanceError):
            value.total = 4
        with pytest.raises(TypeError):
            Sum(1, total=5)

    def test_post_init_runs(self):
        @fast_init
        @dataclass(frozen=True, slots=True)
        class Checked:
            x: int

            def __post_init__(self):
                if self.x < 0:
                    raise ValueError("x must be non-negative")

        with pytest.raises(ValueError, match="non-negative"):
            Checked(-1)

    def test_init_var_is_refused(self):
        with pytest.raises(TypeError, match="from its fields alone"):
            @fast_init
            @dataclass(frozen=True, slots=True)
            class WithInitVar:
                x: int
                scale: InitVar[int] = 1

                def __post_init__(self, scale):
                    pass

    def test_keyword_only_field_is_refused(self):
        with pytest.raises(TypeError, match="from its fields alone"):
            @fast_init
            @dataclass(frozen=True, slots=True)
            class WithKeywordOnly:
                x: int
                scale: int = field(default=1, kw_only=True)
