"""A message's size travels on the message.

Every protocol message in :mod:`repro.consensus.messages` must report the
size of the reference formulas (``tests/reference_sizes.py``) for any field
values, before and after a pickle round-trip (shard pipes pickle messages).
A fixed-size class carries its size as a class constant, so building one
runs no size code; a variable-size class stores it once, at construction.
The equivocation adversary sends forged copies, which the transport now
charges at their own size: that must equal the original's.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.attacks import forge_message
from repro.consensus import messages
from repro.core.frozen import DERIVED

from reference_sizes import REFERENCE_SIZES, reference_size
from test_core_frozen import calls, frozen_slots_dataclasses

MESSAGES = frozen_slots_dataclasses(messages)

#: the classes whose size reads no field
FIXED = {"InstanceMessage", "Prepare", "Commit", "ViewChange", "CheckpointMessage"}


def test_every_message_class_has_a_reference():
    assert sorted(cls.__name__ for cls in MESSAGES) == sorted(REFERENCE_SIZES)


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda cls: cls.__name__)
def test_size_is_a_class_constant_or_one_derived_field(cls):
    assert not hasattr(cls, "__post_init__")
    size_fields = [f for f in dataclasses.fields(cls) if f.name == "size_bytes"]
    if cls.__name__ in FIXED:
        assert size_fields == [] and isinstance(cls.size_bytes, int)
        assert not hasattr(cls, "_wire_size")
    else:
        (size,) = size_fields
        assert size.metadata[DERIVED] == "_wire_size" and not size.init


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_size_matches_the_reference(cls, data):
    args, kwargs = data.draw(calls(cls))
    message = cls(*args, **kwargs)
    assert message.size_bytes == reference_size(message)
    copy = pickle.loads(pickle.dumps(message))
    assert copy.size_bytes == message.size_bytes


@pytest.mark.parametrize(
    "cls", [messages.PrePrepare, messages.Prepare, messages.Commit], ids=lambda cls: cls.__name__
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_forged_copy_has_the_originals_size(cls, data):
    args, kwargs = data.draw(calls(cls))
    message = cls(*args, **kwargs)
    forged = forge_message(message)
    assert forged.digest != message.digest
    assert forged.size_bytes == message.size_bytes
