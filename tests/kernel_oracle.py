"""Test oracle for :mod:`repro.kernels`: the per-record loops the kernels replaced.

Every batched kernel in ``repro.kernels.{burst,rxchain,dsp}`` has a
loop twin here, operation-for-operation identical to the pre-kernel
code (same RNG draw order, same floating-point evaluation order), so
the kernels must match it bit for bit (``np.array_equal``). The AoA
grid scans use :func:`repro.kernels.aoa.bartlett_window_reference` /
:func:`~repro.kernels.aoa.music_window_reference` as their oracle: the
same loops run over the full grid, held to the tolerance contract in
``docs/PERFORMANCE.md``.

:data:`ORACLES` maps ``"<module>.<function>"`` to the twin, and
:func:`reference_kernels` swaps every twin in for its kernel — on the
module attributes the call sites resolve — so a whole pipeline can be
run on the loops and compared against production. The benchmarks
import this module too: it is the baseline of the ``bench.kernel.*``
and ``bench.sweep.*`` speedup gauges.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import DecodingError
from repro.kernels import aoa, burst, dsp, rxchain

__all__ = ["KERNEL_MODULES", "ORACLES", "both_impls", "reference_kernels"]

#: The kernel modules whose public functions must each have a twin.
KERNEL_MODULES = {"burst": burst, "rxchain": rxchain, "dsp": dsp}


# --- burst synthesis --------------------------------------------------------------


def draw_variates_reference(
    rng: np.random.Generator,
    n_chirps: int,
    n_rx: int,
    n: int,
    trigger_jitter_s: float,
    residual_fn: Callable[[], np.ndarray],
) -> burst.BurstVariates:
    """The legacy per-record draws: per chirp jitter, residual, then noise per antenna."""
    tau_j, residuals, noise = [], [], []
    for _ in range(n_chirps):
        tau_j.append(rng.normal(0.0, trigger_jitter_s))
        residuals.append(residual_fn())
        noise.append(
            [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(n_rx)]
        )
    return burst.BurstVariates(
        tau_j_s=np.array(tau_j, dtype=float).reshape(n_chirps),
        residuals=np.array(residuals, dtype=np.complex128).reshape(n_chirps, n),
        noise_white=np.array(noise, dtype=np.complex128).reshape(n_chirps, n_rx, n),
    )


def synthesize_burst_reference(
    params: burst.BurstParams, variates: burst.BurstVariates
) -> np.ndarray:
    """The pre-kernel engine loop: one record per (chirp, antenna)."""
    n_chirps = variates.n_chirps
    n_rx, n = params.n_rx, params.n
    t = params.t
    out = np.empty((n_chirps, n_rx, n), dtype=np.complex128)
    for k in range(n_chirps):
        state_on = k % 2 == 0
        node_factor = params.on_amp if state_on else params.off_amp
        mirror_factor = 1.0 + (params.mirror_leak if state_on else 0.0)
        tau_j = variates.tau_j_s[k]
        jitter = np.exp(
            1j
            * 2.0
            * math.pi
            * (params.slope_hz_per_s * tau_j * t + params.start_hz * tau_j)
        )
        residual = variates.residuals[k]
        doppler = np.exp(1j * params.doppler_step_rad * k)
        for m in range(n_rx):
            rx_phase = np.exp(1j * m * params.rx_phase_step_rad)
            samples = (
                params.static[m] * (1.0 + residual)
                + node_factor * params.node_shape * rx_phase * doppler
                + mirror_factor * params.mirror_shape * rx_phase * doppler
            ) * jitter
            noise = params.noise_sigma * variates.noise_white[k, m]
            out[k, m] = samples + noise
    return out


# --- receive chain ----------------------------------------------------------------


def windowed_spectra_reference(
    samples: np.ndarray, window_taps: np.ndarray, nfft: int | None = None
) -> np.ndarray:
    """One windowed, normalized, shifted FFT per record."""
    nfft = nfft or samples.shape[-1]
    coherent_gain = window_taps.sum()
    out = np.empty((samples.shape[0], nfft), dtype=np.complex128)
    for i in range(samples.shape[0]):
        out[i] = (
            np.fft.fftshift(np.fft.fft(samples[i] * window_taps, n=nfft))
            / coherent_gain
        )
    return out


def mean_abs_pair_diff_reference(values: np.ndarray) -> np.ndarray:
    """Mean of ``|values[k] - values[k+1]|`` over a list of pair differences."""
    diffs = [np.abs(a - b) for a, b in zip(values[:-1], values[1:])]
    return np.mean(diffs, axis=0)


def complex_bin_values_reference(
    samples: np.ndarray, sample_rate_hz: float, frequency_hz: float
) -> np.ndarray:
    """One full FFT per record, reading the bin nearest ``frequency_hz``."""
    n = samples.shape[-1]
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    idx = int(np.argmin(np.abs(freqs - frequency_hz)))
    flat = samples.reshape(-1, n)
    out = np.empty(flat.shape[0], dtype=np.complex128)
    for i in range(flat.shape[0]):
        out[i] = np.fft.fft(flat[i])[idx]
    return out.reshape(samples.shape[:-1])


def masked_pair_profile_reference(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per adjacent pair: difference, FFT, mask, |IFFT|; then the mean."""
    profiles = []
    for a, b in zip(samples[:-1], samples[1:]):
        spectrum = np.fft.fft(a - b)
        spectrum[~mask] = 0.0
        profiles.append(np.abs(np.fft.ifft(spectrum)))
    return np.mean(profiles, axis=0)


# --- dsp primitives ---------------------------------------------------------------


def local_maxima_candidates_reference(mag: np.ndarray, floor: float) -> list[int]:
    """The per-sample comprehension: ``>=`` to the left, ``>`` to the right."""
    return [
        k
        for k in range(1, mag.size - 1)
        if mag[k] >= floor and mag[k] >= mag[k - 1] and mag[k] > mag[k + 1]
    ]


def slot_bounds_reference(
    n_samples: int,
    sample_rate_hz: float,
    start_time_s: float,
    t_first_symbol_s: float,
    symbol_duration_s: float,
    guard_s: float,
    n_symbols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol window arithmetic, raising at the first empty slot."""
    i0 = np.empty(n_symbols, dtype=np.int64)
    i1 = np.empty(n_symbols, dtype=np.int64)
    for k in range(n_symbols):
        a_s = t_first_symbol_s + k * symbol_duration_s + guard_s
        b_s = t_first_symbol_s + (k + 1) * symbol_duration_s - guard_s
        lo = max(int(round((a_s - start_time_s) * sample_rate_hz)), 0)
        hi = min(int(round((b_s - start_time_s) * sample_rate_hz)), n_samples)
        if hi <= lo:
            raise DecodingError(
                f"symbol {k} falls outside the captured signal "
                f"(need samples [{lo}, {hi}) of {n_samples})"
            )
        i0[k], i1[k] = lo, hi
    return i0, i1


def integrate_slots_reference(
    samples: np.ndarray, i0: np.ndarray, i1: np.ndarray
) -> np.ndarray:
    """Mean of ``samples.real`` over each window, one slot at a time."""
    levels = np.empty(i0.shape[0])
    for k in range(i0.shape[0]):
        levels[k] = float(np.mean(samples[int(i0[k]) : int(i1[k])].real))
    return levels


#: ``"<module>.<function>"`` → loop twin, for every public kernel function.
ORACLES: dict[str, Callable] = {
    "burst.draw_variates": draw_variates_reference,
    "burst.synthesize_burst": synthesize_burst_reference,
    "rxchain.windowed_spectra": windowed_spectra_reference,
    "rxchain.mean_abs_pair_diff": mean_abs_pair_diff_reference,
    "rxchain.complex_bin_values": complex_bin_values_reference,
    "rxchain.masked_pair_profile": masked_pair_profile_reference,
    "dsp.local_maxima_candidates": local_maxima_candidates_reference,
    "dsp.slot_bounds": slot_bounds_reference,
    "dsp.integrate_slots": integrate_slots_reference,
}

#: The AoA grid scans and their full-grid loop oracles.
_AOA_ORACLES: dict[str, Callable] = {
    "bartlett_spectrum": aoa.bartlett_window_reference,
    "music_spectrum": aoa.music_window_reference,
}


@contextlib.contextmanager
def reference_kernels() -> Iterator[None]:
    """Run everything inside on the loop oracle instead of the kernels.

    Call sites resolve kernels as module attributes
    (``rxchain.windowed_spectra(...)``), so replacing the attributes
    reroutes every caller in this process — and in any worker forked
    while the block is active. The originals are restored on exit.
    """
    swaps = [
        (KERNEL_MODULES[name.split(".")[0]], name.split(".")[1], twin)
        for name, twin in ORACLES.items()
    ]
    swaps += [(aoa, name, twin) for name, twin in _AOA_ORACLES.items()]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in swaps]
    try:
        for module, attr, twin in swaps:
            setattr(module, attr, twin)
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def both_impls(fn: Callable[[], Any]) -> dict[str, Any]:
    """Run ``fn()`` on the kernels and on the oracle; ``{impl: result}``."""
    batched = fn()
    with reference_kernels():
        reference = fn()
    return {"batched": batched, "reference": reference}
