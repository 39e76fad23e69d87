"""ReRAM crossbar functional simulator (Sec. II-B, Fig. 3).

Device physics -> weight mapping -> tiled arrays -> spike-coded input ->
integrate-and-fire ADC -> digital recombination, packaged as a drop-in
matmul engine for the DNN substrate.
"""

from repro.xbar.adc import ADCConfig
from repro.xbar.crossbar import CrossbarArray
from repro.xbar.dac import (
    AnalogDAC,
    InputEncoding,
    RateCoder,
    SpikeCoder,
    quantize_activations,
)
from repro.xbar.device import (
    NOISY_DEVICE,
    PIPELAYER_DEVICE,
    SOFT_ERROR_DEVICE,
    DeviceConfig,
    DeviceModel,
    apply_ir_drop,
)
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig
from repro.xbar.mapping import (
    SlicedWeights,
    WeightMapping,
    map_weights,
    quantize_weights,
    slice_magnitudes,
)
from repro.xbar.tile import TiledCrossbar, tile_grid

__all__ = [
    "ADCConfig",
    "CrossbarArray",
    "AnalogDAC",
    "InputEncoding",
    "SpikeCoder",
    "RateCoder",
    "quantize_activations",
    "DeviceConfig",
    "DeviceModel",
    "apply_ir_drop",
    "PIPELAYER_DEVICE",
    "NOISY_DEVICE",
    "SOFT_ERROR_DEVICE",
    "CrossbarEngine",
    "CrossbarEngineConfig",
    "WeightMapping",
    "SlicedWeights",
    "map_weights",
    "quantize_weights",
    "slice_magnitudes",
    "TiledCrossbar",
    "tile_grid",
]
