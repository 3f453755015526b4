"""Detector tests: pilot structure, the GLRT statistic against a hand
projection oracle, invariances, threshold calibration, and an end-to-end
false-alarm rate check against the closed form.
"""

import math

import numpy as np
import pytest

from omnisync.analysis import fa_closed_form
from omnisync.channel import ChannelConfig, correlation_matrix, realize_channel, sample_paths
from omnisync.codebook import Codebook, build_omni_codebook
from omnisync.detector import (
    DetectorOutput,
    SyncFrame,
    UndefinedStatisticError,
    glrt_statistic,
    make_sync_signal,
    synthesize,
    threshold_from_fa,
)


def scalar_codebook(k=1):
    one = np.ones((1, 1), dtype=np.complex128)
    one.setflags(write=False)
    return Codebook(k=k, w=(one,) * k, f=(one,) * k, design="explicit")


# ===== Pilot =====


def test_sync_signal_row_orthogonality():
    sig = make_sync_signal(2, 64, 3)
    x = sig.x[0]
    assert x.shape == (2, 64)
    gram = x @ x.conj().T
    assert np.max(np.abs(gram - (64 / 2) * np.eye(2))) <= 1e-9
    assert sig.x[1] is x, "slots share the same pilot"
    with pytest.raises(ValueError):
        make_sync_signal(3, 2, 1)


# ===== GLRT statistic =====


@pytest.mark.parametrize("y", [
    np.array([[1.0 + 0j, 1.0]]),
    np.array([[1.0 + 0j, -1.0]]),
    np.array([[2.0 - 1.0j, 0.5 + 0.25j]]),
])
def test_glrt_matches_projection_oracle(y):
    """Scalar case: T is the squared cosine between y and the pilot row."""
    sig = make_sync_signal(1, 2, 1)
    frame = SyncFrame(y=(y,), hypothesis="h0", noise_var=1.0)
    out = glrt_statistic(frame, scalar_codebook(), sig)
    x = sig.x[0][0]
    cos2 = abs(np.vdot(x, y[0])) ** 2 / (np.vdot(x, x).real * np.vdot(y[0], y[0]).real)
    assert abs(out.t - cos2) <= 1e-12, f"T {out.t!r} vs projection oracle {cos2!r}"


def test_glrt_extremes_and_raw_scale():
    sig = make_sync_signal(1, 2, 1)
    aligned = SyncFrame(y=(np.array([[3.0 + 0j, 3.0]]),), hypothesis="h0", noise_var=1.0)
    out = glrt_statistic(aligned, scalar_codebook(), sig)
    assert out.t == 1.0
    assert out.t_raw == math.inf

    orthogonal = SyncFrame(y=(np.array([[1.0 + 0j, -1.0]]),), hypothesis="h0", noise_var=1.0)
    out = glrt_statistic(orthogonal, scalar_codebook(), sig)
    assert abs(out.t) <= 1e-15
    assert abs(out.t_raw) <= 1e-12

    tilted = SyncFrame(y=(np.array([[1.0 + 0j, 0.2]]),), hypothesis="h0", noise_var=1.0)
    out = glrt_statistic(tilted, scalar_codebook(), sig)
    # The two likelihood routes must agree: t_raw = -K L N_r log(1 - T).
    assert abs(out.t_raw + 2 * math.log1p(-out.t)) <= 1e-10


def test_glrt_scale_invariance():
    rng = np.random.default_rng(13)
    cb = build_omni_codebook(8, 2, 8, 2, 2)
    sig = make_sync_signal(2, 16, 2)
    y = tuple(rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
              for _ in range(2))
    base = glrt_statistic(SyncFrame(y=y, hypothesis="h0", noise_var=1.0), cb, sig)
    scaled = glrt_statistic(
        SyncFrame(y=tuple(5.0 * yk for yk in y), hypothesis="h0", noise_var=1.0), cb, sig)
    assert abs(base.t - scaled.t) <= 1e-12


def test_glrt_invariant_to_combiner_recombination():
    """Replacing F by F U (U unitary) with y mapped to U^H y leaves T alone."""
    rng = np.random.default_rng(29)
    cb = build_omni_codebook(8, 2, 8, 2, 1)
    sig = make_sync_signal(2, 16, 1)
    y = (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)),)
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]], dtype=np.complex128)
    cb_rot = Codebook(k=1, w=cb.w, f=(cb.f[0] @ u,), design="explicit")
    base = glrt_statistic(SyncFrame(y=y, hypothesis="h0", noise_var=1.0), cb, sig)
    rotated = glrt_statistic(
        SyncFrame(y=(u.conj().T @ y[0],), hypothesis="h0", noise_var=1.0), cb_rot, sig)
    assert abs(base.t - rotated.t) <= 1e-10


def test_glrt_zero_frame_raises():
    sig = make_sync_signal(1, 2, 1)
    dead = SyncFrame(y=(np.zeros((1, 2), dtype=np.complex128),), hypothesis="h0", noise_var=1.0)
    with pytest.raises(UndefinedStatisticError):
        glrt_statistic(dead, scalar_codebook(), sig)


def test_detector_output_threshold_rules():
    out = DetectorOutput(t=0.3, t_raw=1.0)
    with pytest.raises(ValueError):
        _ = out.detected
    assert out.with_threshold(0.3).detected is False, "tie at the threshold is not a detection"
    assert out.with_threshold(0.2999).detected is True
    with pytest.raises(ValueError):
        out.with_threshold(1.0)


# ===== Synthesis =====


def test_synthesize_shapes_and_validation():
    cb = build_omni_codebook(8, 2, 4, 2, 2)
    sig = make_sync_signal(2, 16, 2)
    config = ChannelConfig(m_t=8, m_r=4, p=1, beta=(1.0,), f_d=100.0, t_s=1e-3, k=2)
    paths = sample_paths(config, 1)
    chan = realize_channel(config, paths, correlation_matrix(config), 2)
    frame = synthesize(cb, sig, chan, 0.5, "h1", 3)
    assert frame.hypothesis == "h1"
    assert all(yk.shape == (2, 16) for yk in frame.y)
    with pytest.raises(ValueError):
        synthesize(cb, sig, None, 0.5, "h1", 3)
    with pytest.raises(ValueError):
        synthesize(cb, sig, chan, 0.0, "h0", 3)
    with pytest.raises(ValueError):
        synthesize(cb, sig, chan, 0.5, "maybe", 3)


def test_synthesize_noise_energy():
    """Unitary combiner keeps the per-entry noise variance at noise_var."""
    cb = build_omni_codebook(8, 2, 4, 2, 1)
    sig = make_sync_signal(2, 16, 1)
    rng = np.random.default_rng(37)
    energies = [float(np.sum(np.abs(synthesize(cb, sig, None, 0.25, "h0", rng).y[0]) ** 2))
                for _ in range(400)]
    mean = np.mean(energies)
    expected = 0.25 * 2 * 16  # noise_var * N_r * L
    assert abs(mean - expected) <= 0.1 * expected, f"noise energy {mean:.3f} vs {expected}"


def test_synthesize_deterministic_for_seed():
    cb = build_omni_codebook(8, 2, 4, 2, 1)
    sig = make_sync_signal(2, 16, 1)
    a = synthesize(cb, sig, None, 1.0, "h0", 77)
    b = synthesize(cb, sig, None, 1.0, "h0", 77)
    assert np.array_equal(a.y[0], b.y[0])


# ===== Threshold calibration =====


def test_threshold_frozen_desk_point():
    gamma = threshold_from_fa(1e-2, 1, 64, 2, 2)
    assert abs(gamma - 0.0769301181402087) <= 1e-12
    assert abs(fa_closed_form(gamma, 1, 64, 2, 2) - 1e-2) <= 1e-12


# Bisection output, pinned to the last bit: the paper-sec6 shape (1, 64, 2, 2)
# and the large calibration shape (16, 256, 4, 4), one target per decade.
@pytest.mark.parametrize("pfa,shape,want", [
    (1e-4, (1, 64, 2, 2), "0.11911161206682172"),
    (1e-1, (16, 256, 4, 4), "0.01687865974124378"),
    (1e-2, (16, 256, 4, 4), "0.01796540747312278"),
    (1e-3, (16, 256, 4, 4), "0.018787936520624077"),
    (1e-4, (16, 256, 4, 4), "0.019482879630437405"),
    (1e-5, (16, 256, 4, 4), "0.020099373472097642"),
    (1e-6, (16, 256, 4, 4), "0.0206615554315194"),
])
def test_threshold_frozen_bits(pfa, shape, want):
    assert repr(threshold_from_fa(pfa, *shape)) == want


def test_threshold_exact_binomial_midpoint():
    # K=1, L=2, N_r=N_t=1: FA(gamma) = 1 - gamma, so the 0.5 target is exact.
    assert abs(threshold_from_fa(0.5, 1, 2, 1, 1) - 0.5) <= 1e-12


@pytest.mark.parametrize("pfa", [1e-1, 1e-2, 1e-4])
def test_threshold_round_trips_through_fa(pfa):
    gamma = threshold_from_fa(pfa, 2, 32, 2, 1)
    assert abs(fa_closed_form(gamma, 2, 32, 2, 1) - pfa) <= 1e-12 * pfa + 1e-15


def test_threshold_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        threshold_from_fa(1e-2, 1, 2, 1, 2)  # signal dim reaches observation dim
    with pytest.raises(ValueError):
        threshold_from_fa(0.0, 1, 64, 2, 2)


def test_false_alarm_rate_matches_closed_form():
    """3000 noise-only frames through the full chain vs the analytic law."""
    cb = scalar_codebook()
    sig = make_sync_signal(1, 8, 1)
    gamma = threshold_from_fa(0.1, 1, 8, 1, 1)
    rng = np.random.default_rng(101)
    hits = 0
    trials = 3000
    for _ in range(trials):
        frame = synthesize(cb, sig, None, 1.0, "h0", rng)
        if glrt_statistic(frame, cb, sig).with_threshold(gamma).detected:
            hits += 1
    rate = hits / trials
    stderr = math.sqrt(0.1 * 0.9 / trials)
    assert abs(rate - 0.1) <= 3 * stderr, f"false alarm rate {rate:.4f} vs 0.1 +- {3 * stderr:.4f}"
