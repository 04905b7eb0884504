import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslink.errors import AliasingError, FramingError
from mslink.txchain import (_INDEX_TO_BITS, Constellation, FrameLayout,
                            SYMBOL_RATE, build_frame, build_pilot_sequence,
                            build_sync_sequence, demap_symbols, ideal_qpsk,
                            impaired_qpsk, map_bits_to_symbols,
                            synthesize_baseband, synthesize_passband)

BARKER7 = np.array([1, 1, 1, -1, -1, 1, -1])


# --- bit mapping --------------------------------------------------------------

def test_bit_mapping_paper_example():
    # "00 10 01 11" -> P1 P4 P2 P3
    bits = [0, 0, 1, 0, 0, 1, 1, 1]
    assert list(map_bits_to_symbols(bits)) == [0, 3, 1, 2]


def test_bit_mapping_trivial_cases():
    assert map_bits_to_symbols([]).size == 0
    assert list(map_bits_to_symbols([0, 0, 0, 0])) == [0, 0]


def test_bit_mapping_rejects_odd_length():
    with pytest.raises(FramingError):
        map_bits_to_symbols([0, 1, 0])


@given(st.lists(st.integers(0, 1)).filter(lambda b: len(b) % 2 == 0))
@settings(max_examples=100, deadline=None)
def test_map_demap_roundtrip(bits):
    assert list(demap_symbols(map_bits_to_symbols(bits))) == bits


def test_gray_arithmetic_equals_the_pair_table():
    # the mapping is written as 2 b0 + (b0 xor b1); the table it replaces
    # indexes [0, 1, 3, 2] by 2 b0 + b1
    bits = np.random.default_rng(5).integers(0, 2, 36864)
    table = np.array([0, 1, 3, 2])[2 * bits[0::2] + bits[1::2]]
    got = map_bits_to_symbols(bits)
    assert got.dtype == table.dtype
    assert got.tobytes() == table.tobytes()


def test_demap_equals_fancy_indexing_and_raises_alike():
    idx = np.array([0, 1, 2, 3, 3, 2, 1, 0, -1, -4])
    got = demap_symbols(idx)
    want = _INDEX_TO_BITS[idx].ravel()
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for bad in (4, -5):
        with pytest.raises(IndexError):
            _INDEX_TO_BITS[np.array([0, bad])]
        with pytest.raises(IndexError):
            demap_symbols([0, bad])


# --- sync sequence -----------------------------------------------------------

def test_sync_sequence_length_and_alphabet():
    seq = build_sync_sequence()
    assert seq.size == 420 == FrameLayout.sync_len
    assert set(np.unique(seq)) <= {-1, 1}


def test_sync_sequence_starts_with_barker7():
    # first chips of Barker-3/4/5 are all +1, so the head is Barker-7 itself
    np.testing.assert_array_equal(build_sync_sequence()[:7], BARKER7)


def test_sync_autocorrelation_sidelobes():
    seq = build_sync_sequence().astype(float)
    corr = np.correlate(seq, seq, mode="full")
    peak = corr[seq.size - 1]
    sidelobes = np.abs(np.delete(corr, seq.size - 1))
    assert peak == 420.0
    assert sidelobes.max() == 140.0  # exhaustive lag scan
    assert peak > sidelobes.max()    # strict peak dominance
    ratio_db = 20 * np.log10(peak / sidelobes.max())
    assert ratio_db > 6.0


# --- pilot sequence ----------------------------------------------------------

def test_pilot_is_deterministic():
    # built afresh twice, past the cache, and as cached
    a = build_pilot_sequence.__wrapped__()
    b = build_pilot_sequence.__wrapped__()
    assert np.array_equal(a, b)
    assert np.array_equal(a, build_pilot_sequence())
    assert a.size == 2048
    assert set(np.unique(a)) <= {0, 1, 2, 3}


def test_default_pilot_spectrum_guard():
    pilot = build_pilot_sequence()
    spectrum = np.abs(np.fft.fft(ideal_qpsk().points[pilot]))
    assert spectrum.min() >= 0.1 * spectrum.mean()


@pytest.mark.parametrize("build", [build_sync_sequence, build_pilot_sequence])
def test_sequences_are_built_once_and_read_only(build):
    seq = build()
    assert build() is seq
    with pytest.raises(ValueError, match="read-only"):
        seq[0] = 0


# --- frame assembly ----------------------------------------------------------

def test_frame_constants():
    lay = FrameLayout()
    assert lay.frame_len == 420 + 10 * (2048 + 160) == 22500
    assert lay.payload_bits == 9 * 2048 * 2 == 36864
    # the format is fixed: neither a constructor argument nor settable
    with pytest.raises(TypeError):
        FrameLayout(sync_len=100)
    with pytest.raises(AttributeError):
        lay.sync_len = 100


def test_frame_serialization_and_cp():
    lay = FrameLayout()
    payload = np.random.default_rng(0).integers(0, 2, lay.payload_bits)
    idx = build_frame(payload)
    assert idx.shape == (22500,)
    # first CP copies the pilot tail
    np.testing.assert_array_equal(idx[420:580], idx[420 + 2048:420 + 2208])
    # every subframe's CP equals its body tail
    for j in range(lay.n_subframes):
        cp0 = lay.sync_len + j * lay.subframe_len
        body0 = cp0 + lay.cp_len
        np.testing.assert_array_equal(
            idx[cp0:cp0 + lay.cp_len],
            idx[body0 + lay.fft_len - lay.cp_len:body0 + lay.fft_len])


def test_frame_is_sync_then_pilot_and_data_subframes():
    payload = np.random.default_rng(2).integers(0, 2, 36864)
    # the serialization the slice writes replace: sync on P1/P3, then each
    # body after its CP, the pilot first
    bodies = np.vstack([build_pilot_sequence(),
                        map_bits_to_symbols(payload).reshape(9, 2048)])
    want = np.concatenate([np.where(build_sync_sequence() > 0, 0, 2),
                           np.hstack([bodies[:, -160:], bodies]).ravel()])
    assert build_frame(payload).tobytes() == want.tobytes()


def test_frame_throughput():
    lay = FrameLayout()
    duration = lay.frame_len / SYMBOL_RATE
    assert duration == pytest.approx(0.018)
    assert lay.payload_bits / duration == pytest.approx(2.048e6)


def test_build_frame_rejects_wrong_payload_size():
    with pytest.raises(FramingError):
        build_frame(np.zeros(100, dtype=int))


# --- baseband synthesis ------------------------------------------------------

def test_baseband_sps1_unit_magnitude():
    payload = np.random.default_rng(1).integers(0, 2, 36864)
    sig = synthesize_baseband(build_frame(payload), ideal_qpsk(), 1)
    assert sig.samples.size == 22500
    np.testing.assert_allclose(np.abs(sig.samples), 1.0)


def test_baseband_symbol_hold():
    idx = np.array([0, 3, 1, 2])
    sig = synthesize_baseband(idx, ideal_qpsk(), 8)
    blocks = sig.samples.reshape(-1, 8)
    assert np.all(blocks == blocks[:, :1])
    np.testing.assert_array_equal(blocks[:, 0], ideal_qpsk().points[idx])


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("points", [
    ideal_qpsk(), np.full(4, 0.3 - 0.1j),
], ids=["constellation", "coinciding-raw-points"])
def test_baseband_into_out_equals_fresh_samples(points, sps):
    # a NaN-filled buffer shows any sample the fill leaves unwritten;
    # np.repeat of the symbol values is the oracle of both paths
    payload = np.random.default_rng(4).integers(0, 2, 36864)
    frame = build_frame(payload)
    values = np.asarray(getattr(points, "points", points))[frame]
    expected = np.repeat(values, sps).tobytes()
    fresh = synthesize_baseband(frame, points, sps)
    out = np.full(FrameLayout.frame_len * sps, np.nan, dtype=complex)
    sig = synthesize_baseband(frame, points, sps, out=out)
    assert sig.samples is out
    assert out.tobytes() == expected
    assert fresh.samples.tobytes() == expected
    assert ((sig.sample_rate, sig.samples_per_symbol)
            == (fresh.sample_rate, fresh.samples_per_symbol))


def test_baseband_indices_resolve_as_indexing_does():
    pts = ideal_qpsk().points
    idx = np.array([0, 3, -1, -4, 2])
    sig = synthesize_baseband(idx, pts, 2)
    assert sig.samples.tobytes() == np.repeat(pts[idx], 2).tobytes()
    for bad in (4, -5):
        with pytest.raises(IndexError):
            synthesize_baseband(np.array([0, bad]), pts, 2)


@pytest.mark.parametrize("out", [
    np.empty(22500 * 8 - 1, dtype=complex),
    np.empty(22500 * 8 + 8, dtype=complex),
    np.empty(22500 * 8, dtype=np.complex64),
    np.empty(2 * 22500 * 8),
    np.empty(2 * 22500 * 8, dtype=complex)[::2],
], ids=["short", "long", "complex64", "float64", "strided"])
def test_baseband_rejects_bad_out(out):
    frame = build_frame(np.zeros(36864, dtype=int))
    with pytest.raises(ValueError, match="out must hold 180000 complex128"):
        synthesize_baseband(frame, ideal_qpsk(), 8, out=out)


@pytest.mark.parametrize("sps", [2.5, True, 0, -1])
def test_baseband_rejects_an_sps_that_is_not_a_positive_integer(sps):
    with pytest.raises(ValueError, match="^sps "):
        synthesize_baseband(np.arange(4), ideal_qpsk(), sps)


def test_baseband_takes_a_numpy_integer_sps():
    idx = np.arange(4)
    want = synthesize_baseband(idx, ideal_qpsk(), 4)
    got = synthesize_baseband(idx, ideal_qpsk(), np.int64(4))
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.sample_rate == want.sample_rate


def test_baseband_sps8_has_out_of_band_leakage():
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 4, 4096)
    sig = synthesize_baseband(idx, ideal_qpsk(), 8)
    spec = np.abs(np.fft.fft(sig.samples)) ** 2
    n = spec.size
    band = n // 16  # one symbol-rate of bandwidth around DC (fs/8 wide)
    in_band = spec[:band // 2].sum() + spec[-band // 2:].sum()
    leak = 1.0 - in_band / spec.sum()
    assert leak > 0.0


# --- passband synthesis ------------------------------------------------------

def test_passband_constant_gamma_is_pure_tone():
    pts = Constellation(np.array([1.0 + 0j, 1j, -1, -1j]))
    idx = np.zeros(256, dtype=int)
    s = synthesize_passband(idx, pts, carrier_freq=1e5, sample_rate=1.6e6,
                            sps=1)
    spec = np.abs(np.fft.fft(s))
    k = int(np.argmax(spec[:128]))
    assert k == 16  # 256 * 1e5 / 1.6e6
    others = np.delete(spec, [k, 256 - k])
    assert np.all(others < 1e-9 * spec[k])


def test_passband_zero_amplitude():
    s = synthesize_passband(np.zeros(32, dtype=int), ideal_qpsk(), 1e5,
                            1.6e6, amplitude=0.0)
    assert not np.any(s)


def test_passband_rejects_aliasing_carrier():
    with pytest.raises(AliasingError):
        synthesize_passband(np.zeros(8, dtype=int), ideal_qpsk(),
                            carrier_freq=5e5, sample_rate=1.6e6)


def test_passband_bpsk_matches_shifted_spectrum():
    # alternating P1/P3 = +-1 pattern; the passband spectrum must be the
    # baseband spectrum translated to +-carrier (both real-signal images)
    idx = np.tile([0, 2], 128)
    pts = Constellation(np.array([1.0 + 0j, 1j, -1 + 0j, -1j]))
    fs, fc, phi, amp = 1.6e6, 1e5, 0.3, 2.0
    s = synthesize_passband(idx, pts, fc, fs, sps=1, amplitude=amp,
                            phase0=phi)
    bb = pts.points[idx]
    n = bb.size
    kc = int(round(n * fc / fs))
    up = np.roll(np.fft.fft(bb), kc)           # envelope spectrum at +fc
    down = np.conj(up[(-np.arange(n)) % n])    # conjugate image at -fc
    expect = 0.5 * amp * (np.exp(1j * phi) * up + np.exp(-1j * phi) * down)
    got = np.fft.fft(s)
    assert np.linalg.norm(got - expect) <= 1e-6 * np.linalg.norm(expect)


# --- constellations ----------------------------------------------------------

def test_ideal_qpsk_geometry():
    pts = ideal_qpsk().points
    np.testing.assert_allclose(np.abs(pts), 1.0)
    np.testing.assert_allclose(np.degrees(np.angle(pts)),
                               [45.0, 135.0, -135.0, -45.0], atol=1e-12)


def test_constellation_owns_read_only_points_and_compares_by_value():
    p = ideal_qpsk().points.copy()
    c = Constellation(p)
    assert not np.shares_memory(c.points, p)
    with pytest.raises(ValueError):
        c.points[0] = 0
    p[0] = 2.0   # the caller's array stays its own
    assert c == ideal_qpsk() and hash(c) == hash(ideal_qpsk())
    assert len({c, ideal_qpsk(), Constellation(list(c.points))}) == 1
    assert c != impaired_qpsk(270.0)
    assert c != Constellation(c.points[::-1])
    assert c != Constellation(np.append(c.points[:3], 2.0))


def test_constellation_rejects_duplicates():
    with pytest.raises(ValueError):
        Constellation(np.array([1, 1, -1, -1j]))


@pytest.mark.parametrize("build", [
    lambda: Constellation([np.nan, 1, 1j, -1]),
    lambda: Constellation([1, np.inf, 1j, -1]),
    lambda: Constellation([1, 1j, complex(-1, -np.inf), -1j]),
    lambda: impaired_qpsk(np.nan),
    lambda: impaired_qpsk(270.0, magnitudes=[np.inf, 1, 1, 1]),
], ids=["nan", "inf", "inf-imag", "impaired-nan-span", "impaired-inf-mag"])
def test_constellation_rejects_points_that_are_not_finite(build):
    # such a constellation used to build, and every frame it carried then
    # failed sync without an error
    with pytest.raises(ValueError, match="^constellation points must be "
                                         "finite, got "):
        build()


def test_impaired_qpsk_full_span_is_rotated_ideal():
    pts = impaired_qpsk(270.0).points
    rot = pts[0] / ideal_qpsk().points[0]
    np.testing.assert_allclose(pts, ideal_qpsk().points * rot, atol=1e-12)
