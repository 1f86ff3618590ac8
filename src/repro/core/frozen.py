"""One constructor for hot frozen values.

A ``@dataclass(frozen=True, slots=True)`` class stores each field in its
generated ``__init__`` through ``object.__setattr__``, the frozen class's
own ``__setattr__`` being the one that raises.  That is a global lookup, an
attribute lookup and a three-argument call per field: on CPython 3.11 an
11-field :class:`~repro.core.block.Block` costs 2.3–3.0 µs to build that
way, against 0.4–0.6 µs for the same class unfrozen.  :func:`fast_init`
replaces the generated ``__init__`` with one that stores each field through
its slot's member descriptor (``cls.<field>.__set__``, bound once at
import): 1.05–1.1 µs per ``Block``, about half.

Everything else stays the dataclass's own: the signature, defaults,
``default_factory`` and ``init=False`` fields, the ``__post_init__`` call,
``FrozenInstanceError`` on assignment, ``__eq__``/``__hash__``/``__repr__``
and pickling.  One thing is added: a :func:`derived` field, a value worked
out from the others (a message's wire size), is stored once at the end of
construction by the same descriptor store, so no ``__post_init__`` and no
``object.__setattr__`` run for it.  Only public :mod:`dataclasses` API is
read, so the same code runs on every Python the project supports.  This
module is the one place that may touch a slot descriptor's ``__set__``
(staticcheck ISO-003).
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields
from typing import Any, Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T", bound=type)

#: decorated class -> the dataclass-generated ``__init__`` it replaced (the
#: reference the constructor's differential test compares against)
DATACLASS_INITS: Dict[type, Callable[..., None]] = {}

#: stands in for an omitted ``default_factory`` argument, as in dataclasses
_FACTORY = object()

#: the field-metadata key of a :func:`derived` field
DERIVED = "fast_init.derived"


def derived(method: str) -> Any:
    """A field :func:`fast_init` fills with ``cls.<method>(self)``, once.

    The value is computed after every other field is stored and is never an
    ``__init__`` argument.  It is a function of the other fields, so it is
    left out of ``__eq__``, ``__hash__`` and ``__repr__``; pickling carries
    it like any field.
    """
    return field(init=False, repr=False, compare=False, metadata={DERIVED: method})


def fast_init(cls: T) -> T:
    """Give the frozen slots dataclass ``cls`` the descriptor-storing ``__init__``.

    Apply it outside ``@dataclass(frozen=True, slots=True)``.  A class
    whose ``__init__`` the fields alone do not describe (an ``InitVar``, a
    keyword-only field) is refused with a ``TypeError`` at import.
    """
    namespace: Dict[str, Any] = {"_FACTORY": _FACTORY}
    parameters: List[str] = ["self"]
    body: List[str] = []
    derive: List[str] = []
    for f in fields(cls):
        name = f.name
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        default = f"_default_{name}"
        if f.default is not MISSING:
            namespace[default] = f.default
        elif f.default_factory is not MISSING:
            namespace[default] = f.default_factory
        if f.init:
            if f.default is not MISSING:
                parameter, value = f"{name}={default}", name
            elif f.default_factory is not MISSING:
                parameter = f"{name}=_FACTORY"
                value = f"{default}() if {name} is _FACTORY else {name}"
            else:
                parameter, value = name, name
            parameters.append(parameter)
        elif f.default is not MISSING:
            value = default
        elif f.default_factory is not MISSING:
            value = f"{default}()"
        elif DERIVED in f.metadata:
            namespace[f"_derive_{name}"] = getattr(cls, f.metadata[DERIVED])
            derive.append(f"    _set_{name}(self, _derive_{name}(self))")
            continue
        else:
            continue  # init=False without a default: left unset, as dataclasses does
        body.append(f"    _set_{name}(self, {value})")
    body += derive
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__({', '.join(parameters)}):\n" + ("\n".join(body) or "    pass")
    exec(compile(source, f"<fast_init {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    original = cls.__init__
    if _parameters(init) != _parameters(original):
        names, keyword_only = _parameters(original)
        raise TypeError(
            f"fast_init cannot rebuild {cls.__qualname__}.__init__ from its fields "
            f"alone: the dataclass's takes {names[1:]}, {keyword_only} keyword-only"
        )
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    DATACLASS_INITS[cls] = original
    cls.__init__ = init
    return cls


def _parameters(function: Callable[..., Any]) -> Tuple[Tuple[str, ...], int]:
    """Parameter names and how many are keyword-only, read off the code."""
    code = function.__code__
    return code.co_varnames[: code.co_argcount + code.co_kwonlyargcount], code.co_kwonlyargcount
