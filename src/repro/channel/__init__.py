"""Propagation, clutter and the 2-D scene model."""

from repro.channel.propagation import (
    free_space_path_loss_db,
    propagation_delay_s,
    propagation_phase_rad,
    clutter_received_power_dbm,
    complex_path_gain,
)
from repro.channel.multipath import Reflector, PathComponent, default_indoor_clutter
from repro.channel.scene import Scene2D, NodePlacement
from repro.channel.atmosphere import (
    AtmosphereModel,
    gaseous_attenuation_db_per_km,
    rain_attenuation_db_per_km,
    fog_attenuation_db_per_km,
)
from repro.channel.rooms import (
    RoomPreset,
    office,
    lab,
    warehouse,
    random_node_scene,
)
from repro.channel.mobility import (
    Waypoint,
    WaypointTrajectory,
    BlockageEvent,
    BlockageModel,
)

__all__ = [
    "free_space_path_loss_db",
    "propagation_delay_s",
    "propagation_phase_rad",
    "clutter_received_power_dbm",
    "complex_path_gain",
    "Reflector",
    "PathComponent",
    "default_indoor_clutter",
    "Scene2D",
    "NodePlacement",
    "Waypoint",
    "WaypointTrajectory",
    "BlockageEvent",
    "BlockageModel",
    "AtmosphereModel",
    "gaseous_attenuation_db_per_km",
    "rain_attenuation_db_per_km",
    "fog_attenuation_db_per_km",
    "RoomPreset",  # milback: disable=ML014 — public scene-configuration type
    "office",
    "lab",
    "warehouse",
    "random_node_scene",
]
