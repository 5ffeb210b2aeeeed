"""Tests for repro.kernels: bitwise equality with the loop oracle.

The kernel layer's whole contract is *exact* float equality between the
batched broadcasts and the per-record loops they replaced, which live
on in :mod:`tests.kernel_oracle` — every comparison here is
``np.array_equal``, never ``allclose``. Shapes deliberately include the
degenerate ones (one RX antenna, two chirps, clipped symbol windows)
where broadcasting bugs hide. End-to-end cases run a whole pipeline
twice, on the kernels and under :func:`kernel_oracle.reference_kernels`.
"""

import inspect

import numpy as np
import pytest

from repro import kernels
from repro.channel.scene import Scene2D
from repro.cli import build_parser
from repro.dsp.fftutils import Spectrum, find_peaks_above
from repro.dsp.modulation import symbol_integrate
from repro.dsp.signal import Signal
from repro.errors import DecodingError
from repro.kernels import burst as burst_kernel
from repro.kernels import dsp as dsp_kernel
from repro.kernels import rxchain
from repro.parallel import parallel_map
from repro.sim.engine import MilBackSimulator
from tests import kernel_oracle
from tests.kernel_oracle import ORACLES, both_impls, reference_kernels


class TestModeSelection:
    def test_default_is_batched(self):
        assert kernels.kernel_mode() == "batched"


class TestOracleCompleteness:
    def test_every_kernel_has_an_oracle_twin(self):
        """A public kernel function added without a loop twin fails here."""
        public = {
            f"{name}.{attr}"
            for name, module in kernel_oracle.KERNEL_MODULES.items()
            for attr in module.__all__
            if inspect.isfunction(getattr(module, attr))
        }
        assert public == set(ORACLES)

    def test_reference_kernels_swaps_and_restores(self):
        original = rxchain.windowed_spectra
        with reference_kernels():
            assert rxchain.windowed_spectra is ORACLES["rxchain.windowed_spectra"]
            assert burst_kernel.synthesize_burst is ORACLES["burst.synthesize_burst"]
        assert rxchain.windowed_spectra is original

    def test_reference_kernels_reach_forked_workers(self):
        with reference_kernels():
            result = parallel_map(_resolves_to_oracle, list(range(4)), max_workers=2)
        assert result.parallel
        assert result.values == [True] * 4

    def test_cli_has_no_kernel_switch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig10", "--kernels", "reference"])


def _resolves_to_oracle(_):
    return rxchain.windowed_spectra is ORACLES["rxchain.windowed_spectra"]


# --- burst synthesis --------------------------------------------------------------


def _burst_fixture(n_chirps, n_rx, n, seed=0):
    rng = np.random.default_rng(seed)
    params = burst_kernel.BurstParams(
        static=(rng.standard_normal((n_rx, n)) + 1j * rng.standard_normal((n_rx, n))),
        node_shape=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        mirror_shape=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        t=np.arange(n) / 40e6,
        slope_hz_per_s=13.9e12,
        start_hz=27.875e9,
        on_amp=1.0,
        off_amp=0.04,
        mirror_leak=0.18,
        rx_phase_step_rad=0.73,
        doppler_step_rad=0.011,
        noise_sigma=3.2e-7,
    )
    variates = burst_kernel.draw_variates(
        np.random.default_rng(seed + 1),
        n_chirps,
        n_rx,
        n,
        trigger_jitter_s=2e-9,
        residual_fn=lambda: np.zeros(n, dtype=np.complex128),
    )
    return params, variates


class TestBurstSynthesis:
    @pytest.mark.parametrize(
        "n_chirps,n_rx,n",
        [(5, 2, 720), (2, 1, 64), (9, 4, 111), (3, 1, 1)],
    )
    def test_batched_equals_reference(self, n_chirps, n_rx, n):
        params, variates = _burst_fixture(n_chirps, n_rx, n)
        ref = kernel_oracle.synthesize_burst_reference(params, variates)
        batched = burst_kernel.synthesize_burst(params, variates)
        assert batched.shape == (n_chirps, n_rx, n)
        assert np.array_equal(batched, ref)

    def test_dispatch_follows_mode(self):
        # Callers resolve the module attribute, so the swap reaches them.
        params, variates = _burst_fixture(2, 1, 16)
        results = both_impls(lambda: burst_kernel.synthesize_burst(params, variates))
        assert np.array_equal(results["batched"], results["reference"])

    def test_engine_burst_identical_across_modes(self):
        def run():
            sim = MilBackSimulator(
                Scene2D.single_node(4.0, orientation_deg=10.0), seed=3
            )
            recs = sim._beat_records(toggled_port="both", n_chirps=5, n_rx_antennas=2)
            return [[r.samples for r in ant] for ant in recs]

        results = both_impls(run)
        for ant_b, ant_r in zip(results["batched"], results["reference"]):
            for rec_b, rec_r in zip(ant_b, ant_r):
                assert np.array_equal(rec_b, rec_r)

    def test_engine_single_antenna_two_chirps(self):
        def run():
            sim = MilBackSimulator(Scene2D.single_node(3.0), seed=7)
            recs = sim._beat_records(toggled_port="A", n_chirps=2, n_rx_antennas=1)
            return [r.samples for r in recs[0]]

        results = both_impls(run)
        for rec_b, rec_r in zip(results["batched"], results["reference"]):
            assert np.array_equal(rec_b, rec_r)

    def test_variates_draw_order_matches_legacy(self):
        # Same generator state must yield the same stream the legacy loop
        # consumed: per chirp jitter, residual, then per-antenna noise.
        def draw(fn, n_chirps=3, n_rx=2, n=8):
            rng = np.random.default_rng(5)
            # A residual that draws pins its place in the per-chirp order.
            return fn(rng, n_chirps, n_rx, n, 1e-9, lambda: rng.standard_normal(n) + 0j)

        v = draw(burst_kernel.draw_variates)
        expect = draw(kernel_oracle.draw_variates_reference)
        assert np.array_equal(v.tau_j_s, expect.tau_j_s)
        assert np.array_equal(v.residuals, expect.residuals)
        assert np.array_equal(v.noise_white, expect.noise_white)


# --- receive chain ----------------------------------------------------------------


class TestRxChain:
    @pytest.mark.parametrize("n_records,n", [(5, 720), (2, 64), (7, 33)])
    def test_windowed_spectra_modes_equal(self, n_records, n):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((n_records, n)) + 1j * rng.standard_normal(
            (n_records, n)
        )
        taps = np.hanning(n)
        assert np.array_equal(
            rxchain.windowed_spectra(samples, taps),
            kernel_oracle.windowed_spectra_reference(samples, taps),
        )

    def test_mean_abs_pair_diff_modes_equal(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        assert np.array_equal(
            rxchain.mean_abs_pair_diff(values),
            kernel_oracle.mean_abs_pair_diff_reference(values),
        )

    @pytest.mark.parametrize("shape", [(5, 64), (3, 4, 64)])
    def test_complex_bin_values_modes_equal(self, shape):
        rng = np.random.default_rng(13)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        batched = rxchain.complex_bin_values(samples, 40e6, 3.1e6)
        assert batched.shape == shape[:-1]
        assert np.array_equal(
            batched, kernel_oracle.complex_bin_values_reference(samples, 40e6, 3.1e6)
        )

    def test_masked_pair_profile_modes_equal(self):
        rng = np.random.default_rng(14)
        samples = rng.standard_normal((5, 96)) + 1j * rng.standard_normal((5, 96))
        mask = np.zeros(96, dtype=bool)
        mask[10:30] = True
        assert np.array_equal(
            rxchain.masked_pair_profile(samples, mask),
            kernel_oracle.masked_pair_profile_reference(samples, mask),
        )

    def test_background_subtraction_end_to_end(self):
        def run():
            sim = MilBackSimulator(Scene2D.single_node(4.0), seed=3)
            recs = sim._beat_records(toggled_port="both", n_chirps=5, n_rx_antennas=2)
            sub = sim.ap.fmcw.background_subtracted(recs[0])
            return sub.values

        results = both_impls(run)
        assert np.array_equal(results["batched"], results["reference"])


# --- dsp primitives ---------------------------------------------------------------


class TestDspKernels:
    @pytest.mark.parametrize("n", [3, 64, 4097])
    def test_local_maxima_modes_equal(self, n):
        rng = np.random.default_rng(21)
        mag = np.abs(rng.standard_normal(n)) + 0.05
        floor = 0.4 * mag.max()
        assert dsp_kernel.local_maxima_candidates(
            mag, floor
        ) == kernel_oracle.local_maxima_candidates_reference(mag, floor)

    def test_local_maxima_plateau_keeps_rightmost(self):
        # >= toward the left neighbour, > toward the right: a flat-top
        # peak fires on its right edge only, in the kernel and the oracle.
        mag = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0])
        assert dsp_kernel.local_maxima_candidates(mag, 0.5) == [2, 4]
        assert kernel_oracle.local_maxima_candidates_reference(mag, 0.5) == [2, 4]

    def test_find_peaks_modes_equal(self):
        rng = np.random.default_rng(22)
        mag = np.abs(rng.standard_normal(512)) + 0.1
        mag[100] = 9.0
        mag[300] = 7.5
        spec = Spectrum(np.linspace(0.0, 1e6, 512), mag.astype(np.complex128))
        results = both_impls(
            lambda: [
                (p.frequency_hz, p.magnitude, p.bin_index)
                for p in find_peaks_above(spec, 0.3, 3)
            ]
        )
        assert results["batched"] == results["reference"]

    @pytest.mark.parametrize(
        "n_symbols,fs_hz,complex_input,t0_s",
        [
            (17, 1.04e6, False, 0.0),
            (9, 2.3e6, True, 0.0),
            (5, 1.0e6, False, -2.2e-6),  # first window clipped at sample 0
        ],
    )
    def test_symbol_integrate_modes_equal(self, n_symbols, fs_hz, complex_input, t0_s):
        rng = np.random.default_rng(23)
        n = int(round(n_symbols * 1e-5 * fs_hz)) + 3
        x = rng.standard_normal(n)
        if complex_input:
            x = x + 1j * rng.standard_normal(n)
        sig = Signal(x, fs_hz, 0.0, 0.0)
        results = both_impls(
            lambda: symbol_integrate(sig, 1e-5, n_symbols, t_first_symbol_s=t0_s)
        )
        assert np.array_equal(results["batched"], results["reference"])
        bounds = (n, fs_hz, 0.0, t0_s, 1e-5, 2e-6, n_symbols)
        for got, want in zip(
            dsp_kernel.slot_bounds(*bounds), kernel_oracle.slot_bounds_reference(*bounds)
        ):
            assert np.array_equal(got, want)

    def test_integrate_slots_uneven_lengths(self):
        # Lengths {3, 4} force the grouped-gather path to split groups.
        rng = np.random.default_rng(24)
        samples = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        i0 = np.array([0, 5, 11, 20, 30])
        i1 = np.array([3, 9, 14, 24, 33])
        assert np.array_equal(
            dsp_kernel.integrate_slots(samples, i0, i1),
            kernel_oracle.integrate_slots_reference(samples, i0, i1),
        )

    def test_slot_bounds_raises_like_reference(self):
        args = (8, 1e6, 0.0, 0.0, 1e-5, 2e-6, 3)
        for slot_bounds in (dsp_kernel.slot_bounds, kernel_oracle.slot_bounds_reference):
            with pytest.raises(DecodingError, match=r"symbol 1 falls outside .*\[12, 8\)"):
                slot_bounds(*args)
        sig = Signal(np.zeros(8), 1e6, 0.0, 0.0)
        with pytest.raises(DecodingError, match="symbol 1 falls outside"), reference_kernels():
            symbol_integrate(sig, 1e-5, 3, t_first_symbol_s=0.0)
