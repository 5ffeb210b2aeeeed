"""Outside-in layer trace: wrap each layer's public entry points.

The traced run records spans from the benchmark's side only — no file
under ``src/`` changes. :data:`ENTRY_POINTS` names, per span group, the
public callables to wrap; :class:`LayerTrace` swaps each one for a
timing wrapper while a traced op runs and restores the originals after.

Each wrapper call is one span. A span's *self time* is its duration
minus the time covered by its direct child spans, so the self times of
all groups plus the wall time outside any span (``unattributed_s``) sum
to the traced wall exactly. Spans are aggregated in memory as they
close (calls and self seconds per group); the fleet workload closes
about half a million of them per scenario, too many to keep one by one.

The attribute a caller resolves is the one replaced: the class
attribute for methods, and for module functions every ``repro.*``
module attribute bound to the same function object — which covers the
defining module and every ``from … import`` site.

Spans are recorded in the benchmark process only: a pool worker forked
while the wrappers are installed skips the bookkeeping (see
``_after_fork``), so the layer split of pooled work comes from a serial
traced pass instead.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import os
import sys
import time

from repro.lint.rules.ml011_layers import LAYERS, UNCONSTRAINED

__all__ = ["ENTRY_POINTS", "LayerTrace", "layer_of"]

#: Span group -> ``module:Class.attr`` / ``module:function`` patterns.
#: A ``*`` in the attribute expands over the class's public methods or
#: the module's ``__all__`` functions.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "antennas.gain": (
        "repro.antennas.fsa:FrequencyScanningAntenna.gain_dbi",
        "repro.antennas.fsa:FrequencyScanningAntenna.alignment_frequency_hz",
    ),
    "netsim.link": (
        "repro.netsim.linkmodel:FleetLinkModel.observe",
        "repro.netsim.linkmodel:FleetLinkModel.ap_interference_dbm",
        "repro.netsim.linkmodel:FleetLinkModel.uplink_sinr_db",
    ),
    "netsim.kernel": ("repro.netsim.core:NetworkSimulation.run",),
    "obs.lookup": (
        "repro.obs.runtime:counter",
        "repro.obs.runtime:gauge",
        "repro.obs.runtime:histogram",
    ),
    "sim.engine": (
        "repro.sim.engine:MilBackSimulator.simulate_*",
        "repro.sim.engine:MilBackSimulator.observe_burst",
    ),
    "kernels": (
        "repro.kernels.burst:*",
        "repro.kernels.rxchain:*",
        "repro.kernels.aoa:*",
    ),
    "hardware": (
        "repro.hardware.envelope_detector:EnvelopeDetector.detect",
        "repro.hardware.adc:Adc.sample",
    ),
    "phy": (
        "repro.phy.framing:encode_frame",
        "repro.phy.framing:decode_frame",
        "repro.phy.oaqfm:bits_to_symbols",
        "repro.phy.oaqfm:symbols_to_bits",
        "repro.phy.oaqfm:oaqfm_waveform",
        "repro.phy.oaqfm:tone_gates",
    ),
    "node": (
        "repro.node.firmware:NodeFirmware.classify_field1",
        "repro.node.demodulator:OaqfmDemodulator.decode",
        "repro.node.demodulator:OaqfmDemodulator.decode_ook",
        "repro.node.orientation:NodeOrientationEstimator.estimate",
        "repro.node.modulator:UplinkModulator.*",
    ),
    "ap": (
        "repro.ap.fmcw:FmcwProcessor.estimate_range",
        "repro.ap.aoa:AoaEstimator.estimate",
        "repro.ap.orientation:ApOrientationEstimator.estimate",
        "repro.ap.uplink_rx:UplinkReceiver.decode",
        "repro.ap.downlink_tx:DownlinkTransmitter.build_burst",
    ),
    "protocol.link": (
        "repro.protocol.link:MilBackLink.localize",
        "repro.protocol.link:MilBackLink.send_to_node",
        "repro.protocol.link:MilBackLink.receive_from_node",
    ),
    "parallel.wait": ("repro.parallel.pool:PersistentPool.imap_chunks",),
    "datasets.write": (
        "repro.datasets.writer:ShardWriter.append_block",
        "repro.datasets.writer:ShardWriter.finalize",
    ),
    "datasets.validate": ("repro.datasets.writer:validate_corpus",),
}

_LEVEL_OF = {package: level for level, packages in enumerate(LAYERS) for package in packages}


def layer_of(group: str) -> str:
    """The ML011 layer a span group's package sits in, e.g. ``L2``."""
    package = group.split(".", 1)[0]
    if package in UNCONSTRAINED:
        return "infra"
    return f"L{_LEVEL_OF[package]}"


def _expand(pattern: str) -> list[tuple[object, str, object]]:
    """``(owner, attribute, function)`` for one entry-point pattern."""
    module_name, attr = pattern.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        owner = getattr(module, class_name)
        names = [
            name
            for name, value in vars(owner).items()
            if inspect.isfunction(value)
            and not name.startswith("_")
            and fnmatch.fnmatchcase(name, method)
        ]
        found = [(owner, name, vars(owner)[name]) for name in names]
    else:
        names = module.__all__ if attr == "*" else [attr]
        found = [
            (module, name, getattr(module, name))
            for name in names
            if inspect.isfunction(getattr(module, name))
        ]
    if not found:
        raise LookupError(f"entry point {pattern!r} matches no function")
    return found


def _aliases(function: object) -> list[tuple[object, str]]:
    """Every ``repro.*`` module attribute bound to ``function``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                sites.append((module, attr))
    return sites


class LayerTrace:
    """Per-group span counts and self times over the passes it wraps."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {group: 0 for group in ENTRY_POINTS}
        self.self_s: dict[str, float] = {group: 0.0 for group in ENTRY_POINTS}
        #: Wall seconds covered by top-level spans (no enclosing span).
        self.covered_s = 0.0
        #: Wall seconds of the traced ops (see :meth:`measure`).
        self.wall_s = 0.0
        self._stack: list[float] = []
        self._recording = True
        self._installed = False
        os.register_at_fork(after_in_child=self._after_fork)
        #: ``(owner, attribute, original, wrapper)``, resolved once here so
        #: that installing around each op costs only the ``setattr`` calls.
        #: Build the trace after the workload's lazy imports have run.
        self._sites: list[tuple[object, str, object, object]] = []
        for group, patterns in ENTRY_POINTS.items():
            for pattern in patterns:
                for owner, name, function in _expand(pattern):
                    wrapper = self._wrap(group, function)
                    sites = [(owner, name)] if inspect.isclass(owner) else _aliases(function)
                    for site, attr in sites:
                        self._sites.append((site, attr, getattr(site, attr), wrapper))

    def _after_fork(self) -> None:
        self._recording = False

    # --- installing -------------------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        if self._installed:
            raise RuntimeError("layer trace already installed")
        self._installed = True
        for site, attr, _, wrapper in self._sites:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for site, attr, original, _ in reversed(self._sites):
            setattr(site, attr, original)
        self._installed = False

    def measure(self, fn, *args, **kwargs):
        """Run ``fn`` with the wrappers installed, adding its wall time."""
        self.install()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_s += time.perf_counter() - start
            self.uninstall()

    @property
    def unattributed_s(self) -> float:
        """Traced wall time that no span covered."""
        return self.wall_s - self.covered_s

    # --- wrappers ---------------------------------------------------------------------

    def _close(self, group: str, elapsed_s: float) -> None:
        stack = self._stack
        self.calls[group] += 1
        self.self_s[group] += elapsed_s - stack.pop()
        if stack:
            stack[-1] += elapsed_s
        else:
            self.covered_s += elapsed_s

    def _wrap(self, group: str, function):
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(group, function)
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return function(*args, **kwargs)
            self._stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                self._close(group, clock() - start)

        return wrapper

    def _wrap_generator(self, group: str, function):
        """One span per ``next()``: the time the consumer is blocked."""
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            inner = function(*args, **kwargs)
            if not self._recording:
                yield from inner
                return
            try:
                while True:
                    self._stack.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(group, clock() - start)
                    yield item
            finally:
                inner.close()

        return wrapper
