"""The one run configuration refuses a bad cell at construction, by name.

A property test over :class:`~repro.bench.config.ExperimentCell` in three
parts: every invalid field value (or invalid combination) raises
``ValueError`` naming the field before anything can hash the cell into a
sweep cache key or write it into a corpus artifact; every valid cell
survives the artifact round trip unchanged under the same cache key; and
every checked-in corpus or planted-bug artifact still loads.  A structural
guard keeps the planted bugs out of the configuration.
"""

import dataclasses
import glob
import json
import math
import os
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.registry import available_adversaries
from repro.bench.__main__ import main
from repro.bench.config import ENGINES, ExperimentCell
from repro.bench.sweep import cell_key
from repro.consensus.base import InstanceConfig
from repro.fuzz.artifact import artifact_cell, cell_from_jsonable, cell_to_jsonable, read_artifact
from repro.fuzz.campaign import FuzzConfig
from repro.fuzz.perturb import PerturbationSpec
from repro.protocols.base import HOTSTUFF_STACKS
from repro.protocols.registry import available_protocols, resolve_protocol
from repro.runtime.base import RUNTIME_KINDS
from repro.scenario.registry import available_scenarios

TESTS_DIR = os.path.dirname(__file__)
CORPUS = sorted(
    glob.glob(os.path.join(TESTS_DIR, "corpus", "*.json"))
    + glob.glob(os.path.join(TESTS_DIR, "planted", "*.json"))
)
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src", "repro")

BASE = dict(protocol="ladon-pbft", n=8)

#: not positive, or not finite
NOT_POSITIVE_FINITE = st.one_of(
    st.floats(max_value=0.0), st.sampled_from([math.inf, -math.inf, math.nan])
)
NAMES = st.text(alphabet=string.ascii_lowercase + "-", min_size=1, max_size=16)


def _is_protocol(name):
    try:
        resolve_protocol(name)
    except KeyError:
        return False
    return True


def _case(field, values, **context):
    """(field, cell kwargs) with ``field`` drawn from ``values`` over ``context``."""
    return values.map(lambda value: (field, {**BASE, **context, field: value}))


INVALID = st.one_of(
    # one bad value, by field
    _case("protocol", NAMES.filter(lambda name: not _is_protocol(name))),
    _case("scenario", NAMES.filter(lambda name: name not in available_scenarios())),
    _case("adversary", NAMES.filter(lambda name: name not in available_adversaries())),
    _case("n", st.integers(max_value=3)),
    _case("environment", NAMES.filter(lambda name: name not in ("wan", "lan"))),
    _case("engine", NAMES.filter(lambda name: name not in ENGINES)),
    _case("runtime", NAMES.filter(lambda name: name not in RUNTIME_KINDS)),
    _case("shard_strategy", NAMES.filter(lambda name: name not in ("affine", "hash"))),
    *(
        _case(field, NOT_POSITIVE_FINITE)
        for field in ("duration", "view_change_timeout", "realtime_timescale",
                      "total_block_rate", "propose_timeout")
    ),
    _case("batch_size", st.integers(max_value=0)),
    _case("epoch_length", st.integers(max_value=0)),
    _case("stragglers", st.integers(max_value=-1) | st.integers(min_value=9)),
    _case("straggler_slowdown", st.floats(max_value=1.0, exclude_max=True)
          | st.sampled_from([math.inf, math.nan])),
    # combinations: the field named is the one the context makes invalid
    *(
        _case("propose_timeout", st.floats(0.1, 10.0), protocol=protocol)
        for protocol in sorted(HOTSTUFF_STACKS)
    ),
    _case("shards", st.integers(min_value=9, max_value=64), runtime="sharded"),
    _case("shards", st.integers(max_value=1), runtime="sharded"),
    _case("shards", st.integers(min_value=2, max_value=8), runtime="des"),
    _case("trace", st.just(True), runtime="sharded", shards=2),
    _case("perturbation", st.builds(PerturbationSpec), runtime="sharded", shards=2),
    _case("scenario", st.sampled_from(available_scenarios()), engine="analytical"),
    _case("adversary", st.sampled_from(available_adversaries()), engine="analytical"),
    _case("runtime", st.just("realtime"), engine="analytical"),
    _case("runtime", st.just("sharded"), engine="analytical", shards=2),
    _case("perturbation", st.builds(PerturbationSpec), engine="analytical"),
    _case("trace", st.just(True), engine="analytical"),
)

POSITIVE = st.floats(min_value=1e-3, max_value=1e4)


@st.composite
def valid_cells(draw):
    protocol = draw(st.sampled_from(available_protocols()))
    n = draw(st.integers(4, 64))
    runtime = draw(st.sampled_from(RUNTIME_KINDS))
    engine = draw(st.sampled_from(ENGINES)) if runtime == "des" else "des"
    single_process_des = engine == "des" and runtime != "sharded"
    kwargs = dict(
        protocol=protocol,
        n=n,
        stragglers=draw(st.integers(0, n)),
        byzantine=draw(st.booleans()),
        environment=draw(st.sampled_from(("wan", "lan"))),
        duration=draw(POSITIVE),
        straggler_slowdown=draw(st.floats(1.0, 100.0)),
        batch_size=draw(st.integers(1, 8192)),
        total_block_rate=draw(st.none() | POSITIVE),
        engine=engine,
        seed=draw(st.integers(0, 2**32 - 1)),
        epoch_length=draw(st.integers(1, 256)),
        propose_timeout=None if protocol in HOTSTUFF_STACKS else draw(st.none() | POSITIVE),
        view_change_timeout=draw(POSITIVE),
        runtime=runtime,
        realtime_timescale=draw(POSITIVE),
        shard_strategy=draw(st.sampled_from(("affine", "hash"))),
    )
    if runtime == "sharded":
        kwargs["shards"] = draw(st.integers(2, n))
    if engine == "des":
        kwargs["scenario"] = draw(st.none() | st.sampled_from(available_scenarios()))
        kwargs["adversary"] = draw(st.none() | st.sampled_from(available_adversaries()))
    if single_process_des:
        kwargs["trace"] = draw(st.booleans())
        kwargs["perturbation"] = draw(st.none() | st.builds(
            PerturbationSpec,
            max_delay=st.floats(0.0, 2.0),
            probability=st.floats(0.0, 1.0),
            seed=st.integers(0, 2**32 - 1),
            until=st.none() | POSITIVE,
        ))
    return ExperimentCell(**kwargs)


class TestOneValidatedCell:
    @settings(max_examples=300, deadline=None)
    @given(INVALID)
    def test_an_invalid_cell_is_refused_at_construction_naming_the_field(self, case):
        field, kwargs = case
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            ExperimentCell(**kwargs)

    @settings(max_examples=200, deadline=None)
    @given(valid_cells())
    def test_a_valid_cell_round_trips_through_the_artifact_form(self, cell):
        loaded = cell_from_jsonable(json.loads(json.dumps(cell_to_jsonable(cell))))
        assert loaded == cell
        assert cell_key(loaded) == cell_key(cell)

    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    def test_every_corpus_artifact_still_loads(self, path):
        cell = artifact_cell(read_artifact(path))
        assert cell_from_jsonable(cell_to_jsonable(cell)) == cell


class TestPlantedBugsAreNotConfiguration:
    """A planted bug is a test-local instance subclass, never a setting."""

    def test_no_compat_knob_is_left_in_the_source(self):
        hits = []
        for root, _dirs, files in os.walk(SRC_DIR):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as fh:
                        # ``\b``: "incompatible" is fine, "compat_flags" is not
                        if re.search(r"\bcompat", fh.read()):
                            hits.append(os.path.relpath(path, SRC_DIR))
        assert not hits, hits

    def test_the_configuration_surfaces_keep_their_size(self):
        assert len(dataclasses.fields(ExperimentCell)) == 22
        assert len(dataclasses.fields(FuzzConfig)) == 14
        assert [f.name for f in dataclasses.fields(InstanceConfig) if f.init] == [
            "instance_id", "replica_id", "n", "view_change_timeout", "propose_timeout",
        ]

    def test_fuzz_run_refuses_a_compat_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["fuzz", "run", "--compat", "x"])
        assert exit_.value.code == 2
        assert "--compat" in capsys.readouterr().err

    def test_a_format_1_artifact_is_refused_by_name(self):
        artifact = read_artifact(CORPUS[0])
        artifact["format"] = 1
        with pytest.raises(ValueError, match="unsupported artifact format 1"):
            artifact_cell(artifact)
