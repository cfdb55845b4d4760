"""combsync: frequency-stability analysis and clock-synchronization simulation.

Modules by concern:

    series      phase and fractional-frequency time series containers
    seeding     explicit seeds and derived sub-seeds
    errors      the toolkit's exception types and its shared range checks
    noisegen    power-law oscillator noise synthesis
    stability   FFI/TDEV estimators, sigma-tau curves, noise identification
    clockmodel  oscillator and frequency-comb parameter models
    quantum     SQL/HL timing scaling laws, squeezing and loss
    synclink    one-way/two-way transfer and campaign simulation
    artifacts   the one artifact writer and reader
    config      strict YAML experiment configs built from the dataclasses
    cli         config-driven experiment runner
"""

from .errors import CombsyncError, DegenerateInput, InsufficientData, InvalidArgument
from .series import TimeSeriesX, TimeSeriesY

__all__ = [
    "CombsyncError",
    "DegenerateInput",
    "InsufficientData",
    "InvalidArgument",
    "TimeSeriesX",
    "TimeSeriesY",
]

__version__ = "0.1.0"
