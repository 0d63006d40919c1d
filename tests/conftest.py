import pytest
from hypothesis import settings

from airshield.airflow import JetModel, PerceptionModel
from airshield.geometry import CameraIntrinsics, MarkerSpec
from airshield.pipeline import StageLatencyModel
from airshield.safety import SafetyZoneConfig
from airshield.sim import HumanModel, default_trajectory

# Property tests run numpy and whole trials, whose first calls are slow on a
# cold or shared host; a per-example deadline would fail on timing alone.
settings.register_profile("airshield", deadline=None)
settings.load_profile("airshield")


@pytest.fixture
def cam() -> CameraIntrinsics:
    return CameraIntrinsics()


@pytest.fixture
def marker() -> MarkerSpec:
    # The tag size used in the worked pixel examples.
    return MarkerSpec(side_len=0.10)


@pytest.fixture
def zone() -> SafetyZoneConfig:
    return SafetyZoneConfig()


@pytest.fixture
def jet() -> JetModel:
    return JetModel()


@pytest.fixture
def perception() -> PerceptionModel:
    return PerceptionModel()


@pytest.fixture
def latency() -> StageLatencyModel:
    return StageLatencyModel()


@pytest.fixture
def human() -> HumanModel:
    return HumanModel()


@pytest.fixture
def trajectory():
    return default_trajectory()

