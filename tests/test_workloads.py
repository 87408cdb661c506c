import pytest

from layermig.config import build_scenario
from layermig.guest import Virtualization
from layermig.workloads import AppProfile, builtin_profiles, per_kind, profile_by_name

MB = 1_000_000
C = Virtualization.CONTAINER
V = Virtualization.VM


def test_exactly_five_builtin_profiles():
    names = [p.name for p in builtin_profiles()]
    assert names == [
        "Game Server", "RAM Simulation", "Video Streaming", "Face Detection", "No Application",
    ]


def test_game_server_constants():
    p = profile_by_name("Game Server")
    assert p.install_bytes[C] == 700_000
    assert p.memory_bytes == 1 * MB


def test_ram_simulation_constants():
    p = profile_by_name("RAM Simulation")
    assert p.install_bytes[C] == 100_000
    assert p.memory_bytes == 330 * MB
    assert p.memory_churn_rate == 0.5


def test_video_streaming_constants():
    p = profile_by_name("Video Streaming")
    assert p.install_bytes[C] == 280 * MB
    assert p.install_bytes[V] == 230 * MB
    assert p.data_bytes == 50 * MB
    assert p.memory_bytes == 30 * MB


def test_face_detection_constants():
    p = profile_by_name("Face Detection")
    assert p.install_bytes[C] == 655 * MB
    assert p.install_bytes[V] == 565 * MB
    assert p.memory_bytes == 100 * MB


def test_no_application_constants():
    p = profile_by_name("No Application")
    assert p.install_bytes[C] == 0
    assert p.install_bytes[V] == 0
    assert p.data_bytes == 0
    assert p.memory_bytes == 0


def test_unknown_profile_name():
    with pytest.raises(KeyError):
        profile_by_name("Nonexistent")


def test_negative_sizes_rejected():
    with pytest.raises(ValueError):
        AppProfile(name="bad", install_bytes=per_kind(-1, 0))
    with pytest.raises(ValueError):
        AppProfile(name="bad", install_bytes=per_kind(0, 0), memory_bytes=-5)


@pytest.mark.parametrize("name", ["", ".", "..", "../../etc", "a/../b", "a/./b", "a\\b", "/abs",
                                  "x/", "a//b"])
def test_profile_name_must_make_a_normal_path(name):
    with pytest.raises(ValueError, match="normal path"):
        AppProfile(name=name, install_bytes=per_kind(1, 1))


@pytest.mark.parametrize("name", ["Face Detection", "a{}b", "a/b", ".hidden", "x..y"])
def test_profile_names_that_make_a_normal_path(name):
    assert AppProfile(name=name, install_bytes=per_kind(1, 1)).name == name


def test_profile_from_dict_scalar_install():
    p = build_scenario({"profile": {"name": "tiny", "install_bytes": 1234}}, None).profile
    assert p.install_bytes[C] == 1234
    assert p.install_bytes[V] == 1234
