"""Codebook construction tests: Golay pairs, schedules, named designs,
beam patterns, verification scoping, and JSON round trips.

Autocorrelation oracles here use np.correlate directly instead of the
package's own helper, so the two routes check each other.
"""

import json

import numpy as np
import pytest

from omnisync.codebook import (
    AngleGrid,
    Codebook,
    aperiodic_autocorrelation,
    basis_codebook,
    beam_pattern,
    build_approach_codebook,
    build_omni_codebook,
    codebook_from_json,
    codebook_to_json,
    dft_sweep_codebook,
    golay_hadamard,
    golay_pair,
    pattern_csv_rows,
    random_phase_codebook,
    section6_schedule,
    verify_codebook,
    verify_schedule,
    zc_precoder,
    SlotSchedule,
)


def dense_pattern_oracle(w, grid, chunk=512):
    """Beam pattern from the dense steering matrix, a chunk of angles at a time.

    Each row is v(theta)^H W W^H v(theta) with v(theta)_m = exp(j*2*pi*m*theta),
    evaluated directly, so it checks the FFT route in beam_pattern.
    """
    w = np.asarray(w)
    if w.ndim == 1:
        w = w.reshape(-1, 1)
    antennas = np.arange(w.shape[0])
    out = []
    for start in range(0, grid.g, chunk):
        steering = np.exp(2j * np.pi * np.outer(grid.points[start:start + chunk], antennas))
        out.append(np.sum(np.abs(steering.conj() @ w) ** 2, axis=1))
    return np.concatenate(out)


def acf_oracle(seq):
    """Aperiodic autocorrelation lags 0..M-1 via np.correlate, exact int64."""
    s = np.asarray(seq, dtype=np.int64)
    return np.correlate(s, s, mode="full")[s.shape[0] - 1:]


# ===== Golay pairs and Golay-Hadamard matrices =====


def test_golay_pair_hand_values_m4():
    pair = golay_pair(4)
    assert pair.first.tolist() == [1, 1, 1, -1]
    assert pair.second.tolist() == [1, 1, -1, 1]
    assert pair.length == 4


def test_aperiodic_autocorrelation_hand_values():
    acf = aperiodic_autocorrelation(np.array([1, 1, 1, -1]))
    assert acf.tolist() == [4, 1, 0, -1]
    assert acf.dtype == np.int64
    acf_b = aperiodic_autocorrelation(np.array([1, 1, -1, 1]))
    assert acf_b.tolist() == [4, -1, 0, 1]
    assert (acf + acf_b).tolist() == [8, 0, 0, 0]


@pytest.mark.parametrize("m", [2, 4, 8, 32, 128])
def test_golay_pair_delta_sum(m):
    pair = golay_pair(m)
    total = acf_oracle(pair.first) + acf_oracle(pair.second)
    expected = [2 * m] + [0] * (m - 1)
    assert total.tolist() == expected, f"pair ACF sum off at m={m}"
    # Package helper agrees with the independent oracle.
    assert np.array_equal(aperiodic_autocorrelation(pair.first), acf_oracle(pair.first))


def test_golay_pair_rejects_non_power_of_two():
    for bad in (0, 3, 12):
        with pytest.raises(ValueError):
            golay_pair(bad)


def test_golay_hadamard_hand_matrix_m4():
    gh = golay_hadamard(4)
    assert gh.entries.tolist() == [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [-1, 1, 1, -1],
    ]
    assert gh.companion.tolist() == [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [-1, -1, 1, 1],
        [1, -1, -1, 1],
    ]


@pytest.mark.parametrize("m", [2, 4, 16, 64, 256])
def test_golay_hadamard_orthogonal_and_paired(m):
    gh = golay_hadamard(m)
    p = gh.entries
    assert np.array_equal(p.T @ p, m * np.eye(m, dtype=np.int64)), f"P^T P != {m} I"
    for n in range(m // 2):
        total = acf_oracle(p[:, n]) + acf_oracle(p[:, n + m // 2])
        assert total[0] == 2 * m
        assert not total[1:].any(), f"columns ({n}, {n + m // 2}) not complementary at m={m}"


# ===== Schedules =====


def test_schedule_walks_base_indices_cyclically():
    assert section6_schedule(16, 2, 5).base_indices == ((1,), (2,), (3,), (4,), (5,))
    assert section6_schedule(16, 4, 3).base_indices == ((1, 2), (3, 4), (5, 6))
    # Wraps once the m/2 available pairs are exhausted.
    assert section6_schedule(4, 2, 3).base_indices == ((1,), (2,), (1,))


def test_schedule_rejects_odd_or_oversized_streams():
    with pytest.raises(ValueError):
        section6_schedule(16, 3, 2)
    with pytest.raises(ValueError):
        section6_schedule(4, 8, 2)


def test_verify_schedule_flags_double_collisions():
    sched_t = SlotSchedule(((1,), (2,), (1,)))
    sched_r_clash = SlotSchedule(((1,), (1,), (1,)))
    report = verify_schedule(sched_t, sched_r_clash, 3)
    assert not report.passed
    assert report.failing_pairs == ((1, 3),)
    # A collision on one side only is fine.
    sched_r_clean = SlotSchedule(((1,), (2,), (3,)))
    assert verify_schedule(sched_t, sched_r_clean, 3).passed


def test_verify_schedule_requires_full_coverage():
    short = SlotSchedule(((1,),))
    with pytest.raises(ValueError):
        verify_schedule(short, short, 2)


# ===== Beam patterns =====


def test_beam_pattern_two_antenna_hand_values():
    # |1 + e^{-2 pi i theta}|^2 / 2 = 1 + cos(2 pi theta).
    w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    pattern = beam_pattern(w, AngleGrid(4))
    assert np.allclose(pattern, [2.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_beam_pattern_accepts_vectors():
    flat = beam_pattern(np.array([1.0]), AngleGrid(8))
    assert np.allclose(flat, 1.0, atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 8, 13, 64])
@pytest.mark.parametrize("cols", [None, 1, 3])
def test_beam_pattern_matches_dense_oracle(m, cols):
    rng = np.random.default_rng(1000 * m + (cols or 0))
    shape = (m,) if cols is None else (m, cols)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(m)
    # G = 7 folds every M > 7 onto the grid; G = M and G >= 2M zero-pad.
    for g in sorted({7, m, 2 * m, 4 * m + 3}):
        grid = AngleGrid(g)
        got = beam_pattern(w, grid)
        assert got.shape == (g,)
        assert np.max(np.abs(got - dense_pattern_oracle(w, grid))) <= 1e-12, f"G={g}"


@pytest.mark.parametrize("design", ["quasi-omni-zc", "dft-sweep", "random-phase"])
@pytest.mark.parametrize("g", [7, 64, 16384])
def test_beam_pattern_matches_dense_oracle_on_designs(design, g):
    cb = build_approach_codebook(design, 64, 1, 16, 2, 2, seed=3)
    grid = AngleGrid(g)
    for mat in cb.w + cb.f:
        assert np.max(np.abs(beam_pattern(mat, grid) - dense_pattern_oracle(mat, grid))) <= 1e-12


def test_beam_pattern_matches_dense_oracle_at_m1024():
    cb = build_omni_codebook(1024, 2, 1024, 2, 8)
    grid = AngleGrid(8192)
    for wk in (cb.w[0], cb.w[-1]):
        got = beam_pattern(wk, grid)
        assert np.max(np.abs(got - dense_pattern_oracle(wk, grid))) <= 1e-11
        assert np.max(np.abs(got - 2.0)) <= 1e-14


def test_angle_grid_points_and_nyquist():
    grid = AngleGrid(32)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 31 / 32
    assert grid.nyquist_ok(16)
    assert not grid.nyquist_ok(17)
    with pytest.raises(ValueError):
        AngleGrid(0)


# ===== Omnidirectional Golay codebooks =====


@pytest.mark.parametrize("m_t,n_t", [(16, 2), (64, 2), (64, 4)])
def test_omni_codebook_flat_and_unitary(m_t, n_t):
    cb = build_omni_codebook(m_t, n_t, 16, 2, 4)
    grid = AngleGrid(max(4 * m_t, 64))
    for wk in cb.w:
        dev = float(np.max(np.abs(beam_pattern(wk, grid) - n_t)))
        assert dev <= 1e-10, f"tx pattern deviates by {dev:.3e} from {n_t}"
        gram = wk.conj().T @ wk
        assert np.max(np.abs(gram - np.eye(n_t))) <= 1e-12
    for fk in cb.f:
        dev = float(np.max(np.abs(beam_pattern(fk, grid) - 2)))
        assert dev <= 1e-10, f"rx pattern deviates by {dev:.3e} from 2"


def test_omni_codebook_rejects_odd_streams():
    with pytest.raises(ValueError):
        build_omni_codebook(16, 3, 16, 2, 2)
    with pytest.raises(ValueError):
        build_omni_codebook(15, 2, 16, 2, 2)


def test_omni_codebook_honors_custom_schedule():
    sched = SlotSchedule(((3,), (7,)))
    cb = build_omni_codebook(16, 2, 16, 2, 2, schedule_t=sched, schedule_r=sched)
    gh = golay_hadamard(16).entries / np.sqrt(16)
    assert np.allclose(cb.w[0], gh[:, [2, 10]])
    assert np.allclose(cb.w[1], gh[:, [6, 14]])


def test_omni_codebook_square_design_shares_sides():
    cb = build_omni_codebook(16, 2, 16, 2, 3)
    separate = build_omni_codebook(16, 2, 8, 2, 3).w
    for k in range(cb.k):
        assert cb.f[k] is cb.w[k]
        assert np.array_equal(cb.f[k], separate[k])
    unshared = Codebook(k=cb.k, w=cb.w, f=tuple(np.array(m) for m in separate),
                        design=cb.design, schedule_t=cb.schedule_t, schedule_r=cb.schedule_r)
    assert codebook_to_json(cb) == codebook_to_json(unshared)
    restored = codebook_from_json(codebook_to_json(cb))
    for a, b in zip(cb.w + cb.f, restored.w + restored.f):
        assert np.array_equal(a, b)
    other = build_omni_codebook(16, 2, 16, 2, 3, schedule_r=SlotSchedule(((2,), (3,), (4,))))
    assert not np.array_equal(other.f[0], other.w[0])


def test_omni_codebook_rejects_out_of_range_base_index():
    sched = SlotSchedule(((9,), (1,)))  # 9 > 16/2
    with pytest.raises(ValueError):
        build_omni_codebook(16, 2, 16, 2, 2, schedule_t=sched, schedule_r=None)


# ===== Zadoff-Chu, DFT, random-phase, basis designs =====


def test_zc_precoder_hand_values_l4():
    zc = zc_precoder(4, 1)[:, 0]
    root_half = np.exp(-1j * np.pi / 4) / 2.0
    assert np.allclose(zc, [0.5, root_half, -0.5, root_half], atol=1e-15)


@pytest.mark.parametrize("l_zc", [63, 64])
def test_zc_flat_periodic_spectrum(l_zc):
    # Ideal periodic autocorrelation is equivalent to a flat DFT magnitude.
    seq = zc_precoder(l_zc, 1)[:, 0] * np.sqrt(l_zc)
    power = np.abs(np.fft.fft(seq)) ** 2
    assert np.max(np.abs(power - l_zc)) <= 1e-9
    assert abs(np.vdot(seq, seq).real - l_zc) <= 1e-12


def test_zc_precoder_rejects_shared_factor_root():
    with pytest.raises(ValueError):
        zc_precoder(64, 2)
    with pytest.raises(ValueError):
        zc_precoder(0, 1)


def test_dft_sweep_peaks_at_slot_angles():
    cb = dft_sweep_codebook(16, 4)
    grid = AngleGrid(16)
    for slot in range(1, 5):
        pattern = beam_pattern(cb.w[slot - 1], grid)
        assert abs(pattern[slot] - 16.0) <= 1e-9, f"slot {slot} peak {pattern[slot]:.6f}"
        others = np.delete(pattern, slot)
        assert np.max(others) <= 1e-9
    with pytest.raises(ValueError):
        dft_sweep_codebook(4, 5)


def test_random_phase_codebook_deterministic_constant_modulus():
    cb_a = random_phase_codebook(8, 2, 3, seed=7)
    cb_b = random_phase_codebook(8, 2, 3, seed=7)
    cb_c = random_phase_codebook(8, 2, 3, seed=8)
    for wa, wb in zip(cb_a.w, cb_b.w):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(cb_a.w[0], cb_c.w[0])
    assert np.max(np.abs(np.abs(cb_a.w[0]) - 1 / np.sqrt(8))) <= 1e-12


def test_basis_codebook_flat_unit_patterns():
    cb = basis_codebook(4, 4)
    assert cb.design == "explicit"
    grid = AngleGrid(64)
    for wk in cb.w:
        assert np.allclose(beam_pattern(wk, grid), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        basis_codebook(4, 5)


def test_build_approach_codebook_composition():
    zc_cb = build_approach_codebook("quasi-omni-zc", 64, 1, 16, 2, 3)
    assert np.array_equal(zc_cb.w[0], zc_precoder(64, 1))
    assert np.array_equal(zc_cb.w[1], zc_cb.w[0])
    grid = AngleGrid(64)
    for fk in zc_cb.f:
        assert np.allclose(beam_pattern(fk, grid), 2.0, atol=1e-10)

    dft_cb = build_approach_codebook("dft-sweep", 8, 1, 1, 1, 4)
    assert dft_cb.f[0].shape == (1, 1)

    rnd_a = build_approach_codebook("random-phase", 8, 1, 4, 1, 2, seed=5)
    rnd_b = build_approach_codebook("random-phase", 8, 1, 4, 1, 2, seed=5)
    assert np.array_equal(rnd_a.w[0], rnd_b.w[0])
    assert np.array_equal(rnd_a.f[0], rnd_b.f[0])
    assert rnd_a.f[0].shape == (4, 1)

    with pytest.raises(ValueError):
        build_approach_codebook("quasi-omni-zc", 64, 2, 16, 2, 1)
    with pytest.raises(ValueError):
        build_approach_codebook("dft-sweep", 64, 2, 16, 2, 1)
    with pytest.raises(ValueError):
        build_approach_codebook("mystery", 64, 1, 16, 2, 1)


def test_codebook_dataclass_validation():
    one = np.ones((1, 1), dtype=np.complex128)
    with pytest.raises(ValueError):
        Codebook(k=2, w=(one,), f=(one, one), design="explicit")
    eye = np.eye(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        # 0/1 entries break the constant-modulus promise of named designs.
        Codebook(k=1, w=(eye,), f=(eye,), design="omni-golay")


# ===== Verification report scoping =====


def test_verify_codebook_omni_all_pass():
    cb = build_omni_codebook(16, 2, 16, 2, 4)
    report = verify_codebook(cb)
    assert report.passed
    by_name = {c.name: c for c in report.conditions}
    assert set(by_name) == {"constant-modulus", "per-slot-flatness", "unitarity",
                            "cross-slot-orthogonality", "average-coverage"}
    assert by_name["per-slot-flatness"].worst <= 1e-9
    assert by_name["per-slot-flatness"].required
    assert "schedule pass" in by_name["cross-slot-orthogonality"].detail


def test_verify_codebook_zc_flatness_informational():
    cb = build_approach_codebook("quasi-omni-zc", 64, 1, 16, 2, 1)
    report = verify_codebook(cb)
    by_name = {c.name: c for c in report.conditions}
    flat = by_name["per-slot-flatness"]
    assert not flat.required, "flatness is a promise only the omni design makes"
    assert not flat.passed and flat.worst > 0.05
    assert report.passed, "informational failures must not gate the report"


def test_verify_codebook_explicit_skips_modulus():
    report = verify_codebook(basis_codebook(4, 4))
    by_name = {c.name: c for c in report.conditions}
    assert not by_name["constant-modulus"].required
    assert by_name["average-coverage"].passed
    assert report.passed


def test_verify_codebook_rejects_coarse_grid():
    cb = build_omni_codebook(64, 2, 16, 2, 1)
    with pytest.raises(ValueError):
        verify_codebook(cb, AngleGrid(100))


# ===== Serialization =====


def test_codebook_json_round_trip():
    cb = build_omni_codebook(16, 2, 8, 2, 3)
    restored = codebook_from_json(codebook_to_json(cb))
    assert restored.design == cb.design
    assert restored.k == cb.k
    for a, b in zip(cb.w + cb.f, restored.w + restored.f):
        assert np.array_equal(a, b), "serialization must round-trip exactly"
    assert restored.schedule_t.base_indices == cb.schedule_t.base_indices
    assert verify_codebook(restored).passed


def test_codebook_json_missing_field():
    doc = json.loads(codebook_to_json(basis_codebook(2, 1)))
    del doc["design"]
    with pytest.raises(ValueError):
        codebook_from_json(json.dumps(doc))


def test_pattern_rows_shape_and_values():
    cb = build_omni_codebook(16, 2, 16, 2, 2)
    rows = list(pattern_csv_rows(cb, AngleGrid(64)))
    assert len(rows) == 2 * 64 * 2
    tx_powers = [power for _, _, side, power in rows if side == "tx"]
    assert np.allclose(tx_powers, 2.0, atol=1e-10)
    thetas = sorted({theta for theta, _, _, _ in rows})
    assert thetas[0] == 0.0 and len(thetas) == 64
