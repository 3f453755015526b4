"""Package surface: the names `omnisync` exports."""

import omnisync

# The per-frame detector, its frame and result types, the channel
# realizations and the single-path builder left the package; the batched
# glrt_statistic and build_R_general cover what they did.
REMOVED = (
    "ChannelRealization",
    "DetectorOutput",
    "SyncFrame",
    "SyncSignal",
    "UndefinedStatisticError",
    "build_R_single_path",
    "chi_moment",
    "iid_channel",
    "realize_channel",
    "synthesize",
)


def test_every_export_resolves():
    missing = [name for name in omnisync.__all__ if not hasattr(omnisync, name)]
    assert not missing, f"exported but undefined: {missing}"


def test_exports_sorted_and_unique():
    assert list(omnisync.__all__) == sorted(set(omnisync.__all__))


def test_removed_names_not_exported():
    assert not set(REMOVED) & set(omnisync.__all__)
    assert not [name for name in REMOVED if hasattr(omnisync, name)]
