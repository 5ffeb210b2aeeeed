"""Byte-identity pins on the link budget's consumers.

The digests below were recorded before the port-gain composition moved
into :func:`repro.sim.linkbudget.port_gains_db` (when the engine still
had one amplitude helper per path). They pin the exact bytes of the
engine's frequency-resolved amplitudes and of two figure tables, so a
refactor of the budget that changes any bit trips here. Never
regenerate them to make a change pass.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.channel.atmosphere import AtmosphereModel
from repro.channel.scene import Scene2D
from repro.sim import cache as simcache
from repro.sim.engine import MilBackSimulator

SRC = Path(__file__).resolve().parent.parent / "src"

#: (scene, seed, atmosphere) -> sha256 of the amplitude arrays for
#: backscatter A, backscatter B (ranging grid), downlink A, downlink B
#: (three-chirp Field-1 grid at 200 MS/s), evaluated in that order on a
#: fresh simulator (the order fixes the ripple's RNG draws). The third
#: scene's atmosphere exercises the scalar cache's bypass.
AMPLITUDE_PINS = [
    (
        lambda: Scene2D.single_node(2.0),
        1,
        None,
        (
            "bfa479141e5d1ab5b77d5b981904b60f9552873d433b3f4633f5c74906b24005",
            "2512c31750a95b68919d060561c1f7e0082834c99ade78eb2aa6497d5d090233",
            "94bbfe80464fe2e8644fc152219288a77e20387768a4610041ea1f839d30d9b6",
            "2d0e37e69c14f6a2ed84cc89333617344b035eacfbe9f943d4fdb11a849dad37",
        ),
    ),
    (
        lambda: Scene2D.single_node(5.0, azimuth_deg=10.0, orientation_deg=-15.0),
        2,
        None,
        (
            "12f5e12e01c3a9339fe3aa02e4d08a9611bd44aec3b4c84883c5f7b75f4e98fa",
            "99318cef9e889b47043bb4277e4a19ff5e7ebf2d82363497017c5274b61525b6",
            "67c3cc339b05029a76e69192b9d1c7a9b04ab918ac15ab58ad68a86cc478c008",
            "65e91267ae649390b979fa697e5bc77276d53ab917e50893dc3e4663570812c8",
        ),
    ),
    (
        lambda: Scene2D.single_node(
            1.5, azimuth_deg=-20.0, orientation_deg=25.0, with_clutter=False
        ),
        3,
        AtmosphereModel(rain_rate_mm_per_h=25.0),
        (
            "f3c5dce91fdb9b32e9213714060fac6ab6e7bcd5a223cc50c0bdf9faa7b83c51",
            "bbdf2f5844d83c66975818df5b86995bbee3939185ffa8f6914144368fd4446b",
            "59501174cfab696f497544909c2806f1825a4e24e375a21fc3c722be57dd141a",
            "ee62082c5996e9ab06f5686cc56d0737e5248ec102fb2d4ebf7fb6ac0dd46e11",
        ),
    ),
]

#: sha256 of ``repro run <figure> --trials 2`` stdout.
STDOUT_PINS = {
    "fig13": "fb67b49bd4bd5b13d1ec58b4615f05cbffbd8dd645279e50f61f487ec5949ebe",
    "fig14": "a7d6c137c7ef435b7f73981ac33612ce55ef6c972061f3b953515f6f8ccf48c4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "make_scene, seed, atmosphere, digests",
    AMPLITUDE_PINS,
    ids=["2m", "5m-off-axis", "1.5m-rain"],
)
def test_port_amplitudes_are_pinned(make_scene, seed, atmosphere, digests):
    sim = MilBackSimulator(make_scene(), seed=seed, atmosphere=atmosphere)
    cfg = sim.ap.config
    ranging = simcache.chirp_grid(cfg.ranging_chirp, cfg.beat_sample_rate_hz)
    field1 = cfg.field1_chirp
    node_sweep = simcache.chirp_grid(
        field1, 200e6, int(round(3 * field1.duration_s * 200e6))
    )
    got = tuple(
        _sha256(sim._port_amplitude(path, port, grid).tobytes())
        for path, grid in (("backscatter", ranging), ("downlink", node_sweep))
        for port in ("A", "B")
    )
    assert got == digests


@pytest.mark.parametrize("figure", sorted(STDOUT_PINS))
def test_figure_stdout_is_pinned(figure):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", figure, "--trials", "2"],
        capture_output=True,
        env=env,
        check=True,
    )
    assert _sha256(proc.stdout) == STDOUT_PINS[figure]
