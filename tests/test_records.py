"""Which types are plain records and which are values that check themselves.

A plain record is a NamedTuple: immutable, compared and hashed field by
field, copied with ``_replace``. A type that checks or converts its
input, derives cached values, or has a field excluded from comparison
stays a frozen dataclass.
"""

import dataclasses

import pytest

from actinf.agent import AgentConfig, EpisodeResult, EpisodeState, Message, RefinementSummary
from actinf.dists import CategoricalDistribution
from actinf.inference import VfeReport
from actinf.lab import ActionSpec, EnvSpec, ExecutedAction, LabState, Observation
from actinf.model import (
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceEntry,
    PreferenceModel,
    StackedOutcomes,
    TransitionModel,
    ValidationReport,
)
from actinf.planning import EfeBreakdown, Rollout
from actinf.providers import WorldModelQuery, WorldModelResponse
from actinf.scenario import Scenario
from actinf.trace import FreeEnergyLedger, LedgerRow, TraceEvent

RECORDS = [
    EpisodeState, RefinementSummary, EpisodeResult,
    LabState, Observation,
    PreferenceEntry, PreferenceModel, StackedOutcomes, ValidationReport,
    Rollout, WorldModelResponse, Scenario,
    LedgerRow, FreeEnergyLedger,
]

CHECKED_VALUES = [
    AgentConfig, Message, CategoricalDistribution, VfeReport, ExecutedAction, ActionSpec,
    EnvSpec, ObservationModel, TransitionModel, Policy, GenerativeModel, EfeBreakdown,
    WorldModelQuery, TraceEvent,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_an_immutable_tuple_equal_by_its_fields(record):
    assert not dataclasses.is_dataclass(record)
    fields = record._fields
    one = record(*(f"{name}-value" for name in fields))
    same = record(*(f"{name}-value" for name in fields))
    assert isinstance(one, tuple) and one is not same
    assert one == same and hash(one) == hash(same)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(one, name, "changed")
        other = one._replace(**{name: "changed"})
        assert other != one and getattr(one, name) == f"{name}-value"
        assert getattr(other, name) == "changed"


@pytest.mark.parametrize("value", CHECKED_VALUES, ids=lambda cls: cls.__name__)
def test_a_value_that_checks_itself_stays_a_frozen_dataclass(value):
    assert dataclasses.is_dataclass(value)
    assert value.__dataclass_params__.frozen
