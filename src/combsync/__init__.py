"""combsync: frequency-stability analysis and clock-synchronization simulation.

Subpackages by concern:

    noisegen    power-law oscillator noise synthesis
    stability   FFI/TDEV estimators, sigma-tau curves, noise identification
    clockmodel  oscillator and frequency-comb parameter models
    quantum     SQL/HL timing scaling laws, squeezing and loss
    synclink    one-way/two-way transfer and campaign simulation
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
