"""Every hand-slotted frozen dataclass in ``repro`` survives pickling.

Scenarios carrying one (a link-drift policy, a scheduler config) are shipped
to pool workers by pickle, so a round trip must rebuild an equal instance.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.experiments.scenarios import ContikiConfig
from repro.phy.dynamic import DynamicMediumPolicy, default_drift_policy
from repro.schedulers.debras import DebrasConfig, debras_config_from
from repro.schedulers.msf import MsfConfig, msf_config_from
from repro.schedulers.otf import OtfConfig, otf_config_from

#: One valid instance per slotted frozen dataclass; a new such class must be
#: added here (``test_samples_cover_every_slotted_frozen_dataclass``).
SAMPLES = {
    DynamicMediumPolicy: default_drift_policy(seed=3, num_epochs=2),
    DebrasConfig: debras_config_from(ContikiConfig()),
    MsfConfig: msf_config_from(ContikiConfig()),
    OtfConfig: otf_config_from(ContikiConfig()),
}


def _slotted_frozen_dataclasses():
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
                and "__slots__" in vars(value)
            ):
                found.add(value)
    return found


def test_samples_cover_every_slotted_frozen_dataclass():
    assert _slotted_frozen_dataclasses() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle_and_copy(cls):
    original = SAMPLES[cls]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(original, protocol=protocol))
        assert type(restored) is cls
        assert restored == original
    assert copy.deepcopy(original) == original
    assert copy.copy(original) == original


def test_unpickling_revalidates_the_fields():
    policy = SAMPLES[DynamicMediumPolicy]
    cls, args = policy.__reduce__()
    broken = list(args)
    broken[[field.name for field in dataclasses.fields(cls)].index("epoch_s")] = 0.0
    with pytest.raises(ValueError, match="epoch_s"):
        cls(*broken)
