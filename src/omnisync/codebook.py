"""Golay-based omnidirectional codebooks for slot-based downlink synchronization.

Builds Golay complementary pairs and Golay-Hadamard matrices from the doubling
recursion, assembles per-slot precoding/combining codebooks whose beam patterns
are exactly flat at every slot, and provides the baseline designs used in the
experiments (Zadoff-Chu quasi-omni precoding, DFT beam sweeping, random
phases).  Verification covers constant modulus, per-slot flatness, unitarity,
cross-slot orthogonality schedules, and average coverage.

Conventions: virtual angles live in [0, 1); the steering vector at angle theta
has entry m equal to exp(j*2*pi*m*theta); beam patterns are the quadratic form
v(theta)^H W W^H v(theta).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# ===== Module tolerances (defaults per the verification contract) =====

MODULUS_TOL = 1e-12
UNITARY_TOL = 1e-12
FLATNESS_TOL = 1e-9
COVERAGE_TOL = 1e-6
VERIFY_GRID = 8192
EXPORT_GRID = 512

NAMED_DESIGNS = ("omni-golay", "quasi-omni-zc", "dft-sweep", "random-phase")


def _require_power_of_two(m: int) -> None:
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {m}")


# ===== Golay pairs and Golay-Hadamard matrices =====


@dataclass(frozen=True)
class GolayPair:
    """A pair of +-1 sequences whose aperiodic autocorrelations sum to a delta."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        a, b = self.first, self.second
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("pair members must be 1-D and of equal length")
        for seq in (a, b):
            if not np.all(np.abs(seq) == 1):
                raise ValueError("entries must be +1 or -1")

    @property
    def length(self) -> int:
        return self.first.shape[0]


@dataclass(frozen=True)
class GolayHadamardMatrix:
    """Orthogonal +-1 matrix whose columns n and n + M/2 form Golay pairs."""

    order: int
    entries: np.ndarray
    companion: np.ndarray


def aperiodic_autocorrelation(seq: np.ndarray) -> np.ndarray:
    """All aperiodic autocorrelation lags 0..M-1 of an integer sequence.

    Exact integer arithmetic: the input is kept as int64 and every lag value
    is a sum of +-1 products, far below overflow for M <= 1024.
    """
    s = np.asarray(seq, dtype=np.int64)
    m = s.shape[0]
    return np.array([int(np.dot(s[: m - lag], s[lag:])) for lag in range(m)], dtype=np.int64)


def golay_pair(m: int) -> GolayPair:
    """Golay complementary pair of length m via the doubling recursion.

    Starts from ([1], [1]); each step maps (a, b) to ([a; b], [a; -b]).

    Args:
      m: sequence length, a power of two.

    Returns:
      GolayPair of int64 sequences with entries in {+1, -1}.
    """
    _require_power_of_two(m)
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    while a.shape[0] < m:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    a.setflags(write=False)
    b.setflags(write=False)
    return GolayPair(first=a, second=b)


def golay_hadamard(m: int) -> GolayHadamardMatrix:
    """Golay-Hadamard matrix of order m and its companion.

    Doubling recursion from the 1x1 matrix [1]:

      P_M = [[P, P], [T, -T]]      T_M = [[P, P], [-T, T]]

    where P, T are the order-M/2 matrix and companion.  P^T P = M * I, and
    columns n and n + M/2 form a Golay pair for every n in 1..M/2.
    """
    _require_power_of_two(m)
    p = np.array([[1]], dtype=np.int64)
    t = np.array([[1]], dtype=np.int64)
    while p.shape[0] < m:
        p, t = (
            np.block([[p, p], [t, -t]]),
            np.block([[p, p], [-t, t]]),
        )
    p.setflags(write=False)
    t.setflags(write=False)
    return GolayHadamardMatrix(order=m, entries=p, companion=t)


# ===== Slot schedules =====


@dataclass(frozen=True)
class SlotSchedule:
    """Per-slot base column indices (1-based, in 1..M/2) for pair selection."""

    base_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for k, idx in enumerate(self.base_indices):
            if len(set(idx)) != len(idx):
                raise ValueError(f"slot {k + 1} repeats a base index")
            if any(i < 1 for i in idx):
                raise ValueError(f"slot {k + 1} has a base index below 1")

    @property
    def slots(self) -> int:
        return len(self.base_indices)


def section6_schedule(m: int, n: int, k: int) -> SlotSchedule:
    """Default schedule: slot k takes n/2 consecutive base indices, wrapping mod m/2.

    For n = 2 this is base index ((k - 1) mod (m/2)) + 1, so slot 1 uses base
    index 1 and a K-slot sweep walks the available pairs cyclically.
    """
    if n % 2 != 0 or n < 2 or n > m:
        raise ValueError(f"stream count must be even with 2 <= n <= m, got n={n}, m={m}")
    half = m // 2
    per_slot = n // 2
    if per_slot > half:
        raise ValueError("not enough column pairs for the requested stream count")
    slots = []
    for slot in range(k):
        slots.append(tuple((slot * per_slot + j) % half + 1 for j in range(per_slot)))
    return SlotSchedule(base_indices=tuple(slots))


@dataclass(frozen=True)
class ScheduleReport:
    """Cross-slot disjointness report: every slot pair needs disjoint transmit
    base sets or disjoint receive base sets."""

    passed: bool
    failing_pairs: tuple[tuple[int, int], ...]


def verify_schedule(schedule_t: SlotSchedule, schedule_r: SlotSchedule, k: int) -> ScheduleReport:
    """Checks the pairwise disjunction needed for cross-slot orthogonality."""
    if schedule_t.slots < k or schedule_r.slots < k:
        raise ValueError("schedules must cover all k slots")
    failing = []
    for i in range(k):
        ti = set(schedule_t.base_indices[i])
        ri = set(schedule_r.base_indices[i])
        for j in range(i + 1, k):
            tj = set(schedule_t.base_indices[j])
            rj = set(schedule_r.base_indices[j])
            if (ti & tj) and (ri & rj):
                failing.append((i + 1, j + 1))
    return ScheduleReport(passed=not failing, failing_pairs=tuple(failing))


# ===== Codebooks =====


@dataclass(frozen=True)
class Codebook:
    """Per-slot precoders W_k (M_t x N_t) and combiners F_k (M_r x N_r).

    The named designs guarantee constant-modulus entries (1/sqrt(M) each);
    design "explicit" may carry arbitrary matrices, e.g. the basis precoders
    used for pattern demonstrations.
    """

    k: int
    w: tuple[np.ndarray, ...]
    f: tuple[np.ndarray, ...]
    design: str
    schedule_t: SlotSchedule | None = None
    schedule_r: SlotSchedule | None = None

    def __post_init__(self):
        if len(self.w) != self.k or len(self.f) != self.k:
            raise ValueError("need one precoder and one combiner per slot")
        shapes_w = {m.shape for m in self.w}
        shapes_f = {m.shape for m in self.f}
        if len(shapes_w) != 1 or len(shapes_f) != 1:
            raise ValueError("all slots must share matrix shapes")
        if self.design in NAMED_DESIGNS:
            dev = constant_modulus_deviation(self)
            if dev > MODULUS_TOL:
                raise ValueError(f"design {self.design} requires constant-modulus entries "
                                 f"(worst deviation {dev:.3e})")
        if self.design == "omni-golay":
            dev = unitarity_deviation(self)
            if dev > UNITARY_TOL:
                raise ValueError(f"omni-golay requires unitary slots (worst deviation {dev:.3e})")

    @property
    def m_t(self) -> int:
        return self.w[0].shape[0]

    @property
    def n_t(self) -> int:
        return self.w[0].shape[1]

    @property
    def m_r(self) -> int:
        return self.f[0].shape[0]

    @property
    def n_r(self) -> int:
        return self.f[0].shape[1]


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(mat, dtype=np.complex128)
    out.setflags(write=False)
    return out


def constant_modulus_deviation(cb: Codebook) -> float:
    """Worst absolute deviation of any entry modulus from 1/sqrt(M)."""
    dev = 0.0
    for mats, m in ((cb.w, cb.m_t), (cb.f, cb.m_r)):
        target = 1.0 / np.sqrt(m)
        for mat in mats:
            dev = max(dev, float(np.max(np.abs(np.abs(mat) - target))))
    return dev


def unitarity_deviation(cb: Codebook) -> float:
    """Worst max-entry deviation of W_k^H W_k and F_k^H F_k from the identity."""
    dev = 0.0
    for mats in (cb.w, cb.f):
        for mat in mats:
            gram = mat.conj().T @ mat
            dev = max(dev, float(np.max(np.abs(gram - np.eye(mat.shape[1])))))
    return dev


def cross_slot_deviation(cb: Codebook) -> float:
    """Worst over slot pairs of min(|W_k^H W_l|_max, |F_k^H F_l|_max).

    Zero (up to rounding) means every pair is orthogonal on at least one side.
    """
    dev = 0.0
    for i in range(cb.k):
        for j in range(i + 1, cb.k):
            wij = float(np.max(np.abs(cb.w[i].conj().T @ cb.w[j])))
            fij = float(np.max(np.abs(cb.f[i].conj().T @ cb.f[j])))
            dev = max(dev, min(wij, fij))
    return dev


def build_omni_codebook(
    m_t: int,
    n_t: int,
    m_r: int,
    n_r: int,
    k: int,
    schedule_t: SlotSchedule | None = None,
    schedule_r: SlotSchedule | None = None,
) -> Codebook:
    """Per-slot omnidirectional codebook from Golay-Hadamard column pairs.

    Slot k selects, for each scheduled base index n, columns n and n + M/2 of
    the scaled Golay-Hadamard matrix (1/sqrt(M)) * P_M.  The Golay pairing of
    those columns makes the slot beam pattern exactly N at every angle.

    Args:
      m_t, m_r: transmit/receive antenna counts, powers of two.
      n_t, n_r: stream counts, even, 2 <= N <= M.
      k: slot count.
      schedule_t, schedule_r: base-index schedules; defaults to the cyclic
        schedule with slot 1 at base index 1.

    Returns:
      Codebook with design "omni-golay".
    """
    _require_power_of_two(m_t)
    _require_power_of_two(m_r)
    if schedule_t is None:
        schedule_t = section6_schedule(m_t, n_t, k)
    if schedule_r is None:
        schedule_r = section6_schedule(m_r, n_r, k)

    def assemble(m: int, n: int, schedule: SlotSchedule) -> list[np.ndarray]:
        if n % 2 != 0 or n < 2 or n > m:
            raise ValueError(f"stream count must be even with 2 <= n <= m, got n={n}, m={m}")
        gh = golay_hadamard(m).entries.astype(np.float64) / np.sqrt(m)
        mats = []
        for slot in range(k):
            idx = schedule.base_indices[slot]
            if len(idx) != n // 2:
                raise ValueError(f"slot {slot + 1} needs {n // 2} base indices, got {len(idx)}")
            cols = []
            for base in idx:
                if not 1 <= base <= m // 2:
                    raise ValueError(f"base index {base} outside 1..{m // 2}")
                cols.extend([base - 1, base - 1 + m // 2])
            mats.append(_freeze(gh[:, cols]))
        return mats

    w = assemble(m_t, n_t, schedule_t)
    # A square design's sides are the same frozen matrices, built once.
    same = (m_r, n_r, schedule_r) == (m_t, n_t, schedule_t)
    f = w if same else assemble(m_r, n_r, schedule_r)
    return Codebook(k=k, w=tuple(w), f=tuple(f), design="omni-golay",
                    schedule_t=schedule_t, schedule_r=schedule_r)


def zc_precoder(l_zc: int, root: int = 1) -> np.ndarray:
    """Zadoff-Chu column vector of length l_zc, unit norm.

    Entry n (0-based) is exp(-j*pi*root*n^2/L)/sqrt(L) for even L and
    exp(-j*pi*root*n*(n+1)/L)/sqrt(L) for odd L.
    """
    if l_zc < 1:
        raise ValueError("length must be positive")
    if np.gcd(root, l_zc) != 1:
        raise ValueError(f"root {root} is not coprime with length {l_zc}")
    n = np.arange(l_zc)
    exponent = n * n if l_zc % 2 == 0 else n * (n + 1)
    vec = np.exp(-1j * np.pi * root * exponent / l_zc) / np.sqrt(l_zc)
    return _freeze(vec.reshape(l_zc, 1))


def dft_sweep_codebook(m_t: int, k: int) -> Codebook:
    """Beam-sweeping codebook: slot k points the DFT column at angle k/M_t.

    The combiner side is the trivial single-antenna [1]; see
    build_approach_codebook for the composed experiment baselines.
    """
    if k > m_t:
        raise ValueError(f"cannot sweep {k} slots with only {m_t} DFT columns")
    w = []
    m = np.arange(m_t)
    for slot in range(1, k + 1):
        w.append(_freeze(np.exp(2j * np.pi * slot * m / m_t).reshape(m_t, 1) / np.sqrt(m_t)))
    one = _freeze(np.ones((1, 1)))
    return Codebook(k=k, w=tuple(w), f=tuple([one] * k), design="dft-sweep")


def random_phase_codebook(m: int, n: int, k: int, seed: int | np.random.Generator) -> Codebook:
    """Constant-amplitude precoders with i.i.d. uniform phases, one per slot.

    Deterministic for a fixed seed.  The combiner side is the trivial [1];
    build_approach_codebook composes two-sided random designs.
    """
    rng = np.random.default_rng(seed)
    w = []
    for _ in range(k):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, n))
        w.append(_freeze(np.exp(1j * phases) / np.sqrt(m)))
    one = _freeze(np.ones((1, 1)))
    return Codebook(k=k, w=tuple(w), f=tuple([one] * k), design="random-phase")


def basis_codebook(m: int, k: int) -> Codebook:
    """Antenna-selection demo codebook: slot k transmits from antenna k alone.

    Not constant-modulus (entries are 0 or 1), hence design "explicit";
    its beam pattern is flat at 1 for every slot.
    """
    if k > m:
        raise ValueError(f"only {m} basis columns available")
    eye = np.eye(m)
    w = [_freeze(eye[:, [slot]]) for slot in range(k)]
    one = _freeze(np.ones((1, 1)))
    return Codebook(k=k, w=tuple(w), f=tuple([one] * k), design="explicit")


def build_approach_codebook(
    design: str,
    m_t: int,
    n_t: int,
    m_r: int,
    n_r: int,
    k: int,
    seed: int | np.random.Generator = 0,
    zc_root: int = 1,
    schedule_t: SlotSchedule | None = None,
    schedule_r: SlotSchedule | None = None,
) -> Codebook:
    """Composes the experiment baselines with their combiner sides.

    omni-golay uses Golay pairs on both sides; quasi-omni-zc and dft-sweep use
    a single-column precoder with the omnidirectional Golay combiner;
    random-phase draws both sides with i.i.d. phases from the seed.
    """
    if design == "omni-golay":
        return build_omni_codebook(m_t, n_t, m_r, n_r, k, schedule_t, schedule_r)

    def omni_f_side() -> tuple[np.ndarray, ...]:
        if m_r == 1 and n_r == 1:
            return tuple([_freeze(np.ones((1, 1)))] * k)
        side = build_omni_codebook(m_r, n_r, m_r, n_r, k, schedule_r, schedule_r)
        return side.f

    if design == "quasi-omni-zc":
        if n_t != 1:
            raise ValueError("quasi-omni-zc uses a single precoding column")
        col = zc_precoder(m_t, zc_root)
        return Codebook(k=k, w=tuple([col] * k), f=omni_f_side(), design="quasi-omni-zc",
                        schedule_r=schedule_r)
    if design == "dft-sweep":
        if n_t != 1:
            raise ValueError("dft-sweep uses a single precoding column")
        sweep = dft_sweep_codebook(m_t, k)
        return Codebook(k=k, w=sweep.w, f=omni_f_side(), design="dft-sweep",
                        schedule_r=schedule_r)
    if design == "random-phase":
        rng = np.random.default_rng(seed)
        tx = random_phase_codebook(m_t, n_t, k, rng)
        rx = random_phase_codebook(m_r, n_r, k, rng)
        return Codebook(k=k, w=tx.w, f=rx.w, design="random-phase")
    raise ValueError(f"unknown design {design!r}")


# ===== Beam patterns =====


@dataclass(frozen=True)
class AngleGrid:
    """G equally spaced virtual angles g/G, g = 0..G-1."""

    g: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("grid needs at least one point")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.g) / self.g

    def nyquist_ok(self, m: int) -> bool:
        # The pattern is a trigonometric polynomial of degree m - 1.
        return self.g >= 2 * m


def beam_pattern(w: np.ndarray, grid: AngleGrid) -> np.ndarray:
    """Beam pattern v(theta)^H W W^H v(theta) on the grid.

    At theta = g/G the projection v(theta)^H w is the G-point DFT of w, so
    each column costs one zero-padded FFT.  When M > G the steering entries
    repeat with period G in m, so rows m = i (mod G) are summed first.

    Args:
      w: complex matrix, one beamformer column per stream.
      grid: evaluation angles.

    Returns:
      Real nonnegative array of length grid.g.
    """
    w = np.asarray(w)
    if w.ndim == 1:
        w = w.reshape(-1, 1)
    m, g = w.shape[0], grid.g
    if m > g:
        w = np.concatenate([w, np.zeros((-m % g, w.shape[1]), dtype=w.dtype)])
        w = w.reshape(-1, g, w.shape[1]).sum(axis=0)
    projected = np.fft.fft(w, n=g, axis=0)
    return np.sum(projected.real ** 2 + projected.imag ** 2, axis=1)


# ===== Verification =====


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    worst: float
    required: bool
    detail: str = ""


@dataclass(frozen=True)
class CodebookReport:
    """Per-condition verification outcome with measured worst deviations.

    `passed` gates only the conditions required for the codebook's design:
    constant modulus and average coverage always; flatness, unitarity and the
    cross-slot disjunction only for omni-golay, whose construction promises
    them.  Informational conditions are still reported with their deviations.
    """

    design: str
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions if c.required)


def verify_codebook(cb: Codebook, grid: AngleGrid | None = None) -> CodebookReport:
    """Measures every codebook condition on a dense angle grid.

    The grid must satisfy the Nyquist bound G >= 2 * max(M_t, M_r) so that
    grid extrema and grid means of the degree-(M-1) pattern polynomials are
    trustworthy.
    """
    if grid is None:
        grid = AngleGrid(VERIFY_GRID)
    m_max = max(cb.m_t, cb.m_r)
    if not grid.nyquist_ok(m_max):
        raise ValueError(f"verification grid {grid.g} is below the Nyquist bound {2 * m_max}")
    is_omni = cb.design == "omni-golay"

    conditions = []
    dev = constant_modulus_deviation(cb)
    conditions.append(ConditionResult(
        "constant-modulus", dev <= MODULUS_TOL, dev, required=cb.design != "explicit"))

    tx_patterns = [beam_pattern(wk, grid) for wk in cb.w]
    rx_patterns = [beam_pattern(fk, grid) for fk in cb.f]
    flat_dev = 0.0
    for pat, n in [(p, cb.n_t) for p in tx_patterns] + [(p, cb.n_r) for p in rx_patterns]:
        flat_dev = max(flat_dev, float(np.max(np.abs(pat - n))))
    conditions.append(ConditionResult(
        "per-slot-flatness", flat_dev <= FLATNESS_TOL, flat_dev, required=is_omni))

    unit_dev = unitarity_deviation(cb)
    conditions.append(ConditionResult(
        "unitarity", unit_dev <= UNITARY_TOL, unit_dev, required=is_omni))

    cross_dev = cross_slot_deviation(cb)
    cross_ok = cross_dev <= UNITARY_TOL
    schedule_note = ""
    if cb.schedule_t is not None and cb.schedule_r is not None:
        rep = verify_schedule(cb.schedule_t, cb.schedule_r, cb.k)
        schedule_note = "schedule pass" if rep.passed else (
            f"schedule fail at slot pairs {list(rep.failing_pairs)[:4]}")
    conditions.append(ConditionResult(
        "cross-slot-orthogonality", cross_ok, cross_dev, required=False, detail=schedule_note))

    # Average coverage: the grid mean of each pattern equals the stream count
    # exactly (degree < G), so the normalized product sum has mean 1.
    mean_t = np.array([p.mean() for p in tx_patterns])
    mean_r = np.array([p.mean() for p in rx_patterns])
    norm = cb.k * cb.n_r * cb.n_t
    coverage_mean = float(np.dot(mean_t, mean_r) / norm)
    coverage_dev = abs(coverage_mean - 1.0)
    conditions.append(ConditionResult(
        "average-coverage", coverage_dev <= COVERAGE_TOL, coverage_dev, required=True))

    return CodebookReport(design=cb.design, conditions=tuple(conditions))


# ===== Serialization =====


def _matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat).reshape(-1)  # row-major
    return [[float(z.real), float(z.imag)] for z in flat]


def _matrix_from_pairs(pairs: list[list[float]], rows: int, cols: int, key: str) -> np.ndarray:
    try:
        flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"codebook field {key!r}: entries must be [re, im] numbers") from exc
    if flat.size != rows * cols:
        raise ValueError(f"codebook field {key!r}: expected {rows * cols} entries, got {flat.size}")
    return _freeze(flat.reshape(rows, cols))


def codebook_to_json(cb: Codebook) -> str:
    """Serializes a codebook to the interchange JSON document."""
    schedules = None
    if cb.schedule_t is not None or cb.schedule_r is not None:
        schedules = {
            "t": [list(s) for s in cb.schedule_t.base_indices] if cb.schedule_t else None,
            "r": [list(s) for s in cb.schedule_r.base_indices] if cb.schedule_r else None,
        }
    doc = {
        "mt": cb.m_t,
        "nt": cb.n_t,
        "mr": cb.m_r,
        "nr": cb.n_r,
        "k": cb.k,
        "design": cb.design,
        "schedules": schedules,
        "w": [_matrix_to_pairs(wk) for wk in cb.w],
        "f": [_matrix_to_pairs(fk) for fk in cb.f],
    }
    return json.dumps(doc)


def _typed_field(doc: dict, key: str, kind: type, expected: str):
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"codebook field {key!r}: expected {expected}, got {value!r}")
    return value


def _schedule_field(schedules: dict, side: str) -> SlotSchedule | None:
    entries = schedules.get(side)
    if not entries:
        return None
    if not isinstance(entries, list) or not all(
            isinstance(s, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in s)
            for s in entries):
        raise ValueError(
            f"codebook field 'schedules.{side}': expected lists of integers, got {entries!r}")
    return SlotSchedule(tuple(tuple(s) for s in entries))


def codebook_from_json(text: str) -> Codebook:
    """Parses the interchange JSON document back into a Codebook."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("codebook document: expected a JSON object")
    try:
        mt, nt, mr, nr, k = (_typed_field(doc, key, int, "an integer")
                             for key in ("mt", "nt", "mr", "nr", "k"))
        design = str(doc["design"])
        w = tuple(_matrix_from_pairs(p, mt, nt, "w")
                  for p in _typed_field(doc, "w", list, "a list of matrices"))
        f = tuple(_matrix_from_pairs(p, mr, nr, "f")
                  for p in _typed_field(doc, "f", list, "a list of matrices"))
    except KeyError as exc:
        raise ValueError(f"codebook document missing field {exc}") from exc
    schedules = doc.get("schedules") or {}
    if not isinstance(schedules, dict):
        raise ValueError(f"codebook field 'schedules': expected an object, got {schedules!r}")
    return Codebook(k=k, w=w, f=f, design=design,
                    schedule_t=_schedule_field(schedules, "t"),
                    schedule_r=_schedule_field(schedules, "r"))


def pattern_csv_rows(cb: Codebook, grid: AngleGrid | None = None):
    """Yields (theta, slot, side, power) rows for the pattern CSV export."""
    if grid is None:
        grid = AngleGrid(EXPORT_GRID)
    for slot in range(cb.k):
        for side, mat in (("tx", cb.w[slot]), ("rx", cb.f[slot])):
            pattern = beam_pattern(mat, grid)
            for theta, power in zip(grid.points, pattern):
                yield float(theta), slot + 1, side, float(power)
