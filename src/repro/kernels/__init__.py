"""repro.kernels — batched array kernels for the intra-trial hot path.

The process pool makes sweeps scale *across* trials; this layer makes
each trial fast *inside*: the per-chirp / per-antenna Python loops of
burst synthesis and the AP receive chain are single broadcasted NumPy
computations over ``(n_chirps, n_rx, n)`` style arrays.

Determinism contract
--------------------

Each kernel has one implementation. The loops it replaced live on as a
test-only oracle (``tests/kernel_oracle.py``), operation-for-operation
identical to the pre-kernel code (same RNG draw order, same
floating-point evaluation order). Each batched kernel is constructed
so every output element goes through the *same sequence of
floating-point operations on the same operand values* as its oracle.

For the burst/rxchain/dsp family the kernels are **bitwise identical**
to the oracle (``np.array_equal``, not ``allclose``) —
``tests/test_kernels.py`` asserts exact equality across shapes and
fails for any kernel that ships without an oracle twin. The AoA
spectrum family (:mod:`repro.kernels.aoa`) is the one documented
exception: its spectra route the same math through BLAS matmuls whose
reduction order differs from the per-angle loops, so the raw spectra
agree only to a tested few-ulp bound — while the steering phasors, the
MUSIC denominator clamp, the spectrum peak index, and the refined angle
stay exact (see ``docs/PERFORMANCE.md``). The oracle is also the
baseline the ``bench.kernel.*`` speedup gauges are measured against.

Layering: this package depends only on :mod:`numpy`, :mod:`repro.obs`
and :mod:`repro.errors`. Kernels take and return plain arrays — the
call sites (``repro.sim.engine``, ``repro.ap.*``, ``repro.dsp.*``) own
the :class:`~repro.dsp.signal.Signal` / ``Spectrum`` wrapping.
"""

from __future__ import annotations

__all__ = ["kernel_mode"]


def kernel_mode() -> str:
    """The kernel implementation results are produced with: always ``batched``.

    Kept so run manifests keep recording which kernels produced them.
    """
    return "batched"
