"""Transistor-level reference simulator (the repository's HSPICE stand-in)."""

from repro.spice.simulator import (
    ChainSimResult,
    SimOptions,
    simulate_gate,
    simulate_path,
    simulate_paths,
)
from repro.spice.waveform import (
    MeasurementError,
    crossing_time,
    delay_50,
    ramp_input,
    transition_time,
)

__all__ = [
    "SimOptions",
    "ChainSimResult",
    "simulate_path",
    "simulate_paths",
    "simulate_gate",
    "crossing_time",
    "delay_50",
    "transition_time",
    "ramp_input",
    "MeasurementError",
]
