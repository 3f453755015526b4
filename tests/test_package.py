"""Package surface: the names `omnisync` exports."""

import omnisync

# The per-frame detector, its frame and result types, the channel
# realizations, the covariance builders and the covariance type with its
# eigen helpers left the package; the batched glrt_statistic, the factor
# path_factor and spectra taken as arrays cover what they did.
REMOVED = (
    "ChannelRealization",
    "DetectorOutput",
    "EffectiveCovariance",
    "SyncFrame",
    "SyncSignal",
    "UndefinedStatisticError",
    "build_R_general",
    "build_R_single_path",
    "chi_moment",
    "covariance_from_eigenvalues",
    "hermitian_eigenvalues",
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
