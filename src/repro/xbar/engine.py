"""Crossbar matmul engine: the full input-to-output PIM datapath.

:class:`CrossbarEngine` is a drop-in
:class:`~repro.nn.engine.MatmulEngine`: any :class:`~repro.nn.layers.Dense`
or :class:`~repro.nn.layers.Conv2D` layer given this engine computes its
forward matmul through the complete simulated pipeline —

1. weights are quantized, sign-split (differential pairs) or offset,
   bit-sliced into multi-level cells (:mod:`repro.xbar.mapping`);
2. each slice plane is partitioned over 128x128 physical arrays
   (Fig. 3c, :mod:`repro.xbar.tile`) and *programmed*, which applies
   device noise and stuck faults (:mod:`repro.xbar.device`);
3. activations are quantized and driven either with weighted spike
   coding — one binary sub-cycle per input bit, PipeLayer's scheme — or
   by an analog DAC (:mod:`repro.xbar.dac`);
4. every array read is digitised by the integrate-and-fire ADC before
   partial sums merge (:mod:`repro.xbar.adc`); transient read-path
   faults — conductance drift and per-read soft-error upsets
   (:mod:`repro.xbar.device`) — strike between the analog sum and the
   converter, identically in both backends;
5. digital shift-and-add recombines input bits, weight slices, and
   signs.

With an ideal device and a lossless ADC the pipeline is exactly integer
matmul; ``fast_ideal`` exploits that identity to skip the bit-serial
loop (the equivalence is covered by tests).

Two interchangeable backends evaluate the full datapath:

``backend="loop"``
    The reference oracle: nested Python loops over input sub-cycles,
    slice planes, and physical arrays — one :meth:`TiledCrossbar.mvm`
    per (sub-cycle, plane).  Slow but structurally identical to the
    hardware description above.
``backend="vectorized"`` (default)
    Stacks the programmed bit lines of every slice plane of every tile
    into one conductance tensor, evaluates all sub-cycles of a batch
    with batched matmuls, and applies the I&F ADC quantization across
    the whole stack at once.  Bit-for-bit identical to the loop backend
    under a shared seed: read noise is drawn from each array's own
    generator in sub-cycle order (a stacked draw consumes a numpy
    ``Generator`` exactly like sequential per-sub-cycle draws), and
    both backends share one ADC transfer function
    (:func:`repro.xbar.adc.quantize_levels`).  When every per-array
    conversion is provably the identity — integer level matrices, no
    read noise, unit-grid ADC with sufficient range (stuck faults
    allowed) — the sub-cycle loop additionally collapses onto a cached
    combined effective-weights matrix, turning the whole evaluation
    into one exact integer matmul (~100x over the loop backend on a
    256x256 layer).

Neither backend simulates padded bit lines.  An edge array holding
fewer logical columns than ``array_cols`` evaluates, perturbs, and
digitises only its programmed columns; the padded ones are counted,
not simulated — read, conversion, and energy counters still cover the
full physical width.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.nn.engine import MatmulEngine
from repro.telemetry import SCHEMA_VERSION, Collector, TelemetryLike
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive_seed, new_rng
from repro.utils.validation import check_choice, check_positive
from repro.xbar.adc import ADCConfig, quantize_levels
from repro.xbar.dac import (
    AnalogDAC,
    InputEncoding,
    RateCoder,
    SpikeCoder,
    quantize_activations,
)
from repro.xbar.device import PIPELAYER_DEVICE, DeviceConfig
from repro.xbar.mapping import SlicedWeights, WeightMapping, map_weights
from repro.xbar.tile import TiledCrossbar

_log = get_logger("engine")


@dataclass(frozen=True)
class CrossbarEngineConfig:
    """Everything that defines one crossbar compute pipeline."""

    device: DeviceConfig = PIPELAYER_DEVICE
    mapping: WeightMapping = WeightMapping()
    encoding: InputEncoding = InputEncoding(bits=8)
    array_rows: int = 128
    array_cols: int = 128
    input_mode: str = "spike"
    adc_bits: Optional[int] = None
    activation_range: Optional[float] = None
    fast_ideal: bool = True
    fast_linear: bool = False
    backend: str = "vectorized"

    def __post_init__(self) -> None:
        check_positive("array_rows", self.array_rows)
        check_positive("array_cols", self.array_cols)
        check_choice("input_mode", self.input_mode, ("spike", "rate", "analog"))
        check_choice("backend", self.backend, ("loop", "vectorized"))
        if self.adc_bits is not None:
            check_positive("adc_bits", self.adc_bits)
        if self.activation_range is not None:
            check_positive("activation_range", self.activation_range)

    def adc_config(self) -> Optional[ADCConfig]:
        """ADC for one physical array under this drive mode.

        ``None`` means "use the array's lossless default" (only valid
        for binary drive; analog drive always gets an explicit config
        because its full scale grows with the DAC amplitude).
        """
        binary_full_scale = self.array_rows * (self.device.levels - 1)
        if self.input_mode in ("spike", "rate"):
            if self.adc_bits is None:
                return None
            return ADCConfig(
                bits=self.adc_bits,
                full_scale_levels=float(binary_full_scale),
            )
        full_scale = float(binary_full_scale * self.encoding.max_int)
        if self.adc_bits is None:
            bits = max(1, int(np.ceil(np.log2(full_scale + 1))))
            # One count per level unit so integer drives convert exactly.
            return ADCConfig(bits=bits, full_scale_levels=float(2**bits - 1))
        return ADCConfig(bits=self.adc_bits, full_scale_levels=full_scale)

    @property
    def is_linear(self) -> bool:
        """True when the read path is exact (noise only in programming).

        With no read noise and a lossless unit-grid ADC, the bit-serial
        pipeline is a linear function of the word-line drive, so the
        whole evaluation collapses to one matmul with the *effective*
        programmed matrix — up to the ADC's half-count rounding of
        non-integer (noisy-cell) partial sums, which the fast path
        approximates away (bounded by half an output LSB).
        """
        if self.device.read_noise != 0.0 or self.device.has_transient_faults:
            return False
        adc = self.adc_config()
        if adc is None:
            return True
        needed = self.array_rows * (self.device.levels - 1)
        if self.input_mode == "analog":
            needed *= self.encoding.max_int
        return (
            adc.max_count >= needed
            and adc.full_scale_levels >= needed
            and adc.levels_per_count == 1.0
        )

    @property
    def is_ideal(self) -> bool:
        """True when the pipeline equals exact integer matmul."""
        device = self.device
        clean_device = (
            device.program_noise == 0.0
            and device.read_noise == 0.0
            and device.stuck_off_rate == 0.0
            and device.stuck_on_rate == 0.0
            and not device.has_transient_faults
            and device.wire_resistance == 0.0
        )
        if not clean_device:
            return False
        adc = self.adc_config()
        if adc is None:
            return True
        if self.input_mode in ("spike", "rate"):
            needed = self.array_rows * (device.levels - 1)
        else:
            needed = (
                self.array_rows * (device.levels - 1) * self.encoding.max_int
            )
        # Exactness needs range AND a one-count-per-level grid.
        return (
            adc.max_count >= needed
            and adc.full_scale_levels >= needed
            and adc.levels_per_count == 1.0
        )


def weights_hash(weights: np.ndarray) -> str:
    """Content digest of a weight matrix (shape + float64 bytes).

    The programmed-state identity of one engine: two weight arrays
    with the same hash program byte-identical crossbar levels under
    the same config, so callers (``prepare``, the serve layer's
    programmed-state cache) may skip reprogramming on a match.
    """
    array = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def device_config_hash(config: CrossbarEngineConfig) -> str:
    """Content digest of everything that defines the compute pipeline.

    Hashes the full :class:`CrossbarEngineConfig` — device physics,
    mapping, encoding, array geometry, ADC, drive mode, and backend —
    via its frozen-dataclass ``repr`` (deterministic, nested configs
    included).  Together with :func:`weights_hash` this keys the
    programmed-crossbar state: same ``(weights_hash,
    device_config_hash)`` means the arrays would be programmed
    identically.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


def engine_config_to_dict(config: CrossbarEngineConfig) -> Dict[str, Any]:
    """The full engine config as plain JSON data.

    Inverse of :func:`engine_config_from_dict`; the sweep layer uses
    this pair to carry a :class:`CrossbarEngineConfig` inside a cell
    spec (plain dicts pickle cheaply, hash canonically, and survive a
    JSON round-trip through the on-disk result cache).
    """
    return dataclasses.asdict(config)


def engine_config_from_dict(data: Mapping[str, Any]) -> CrossbarEngineConfig:
    """Rebuild a :class:`CrossbarEngineConfig` from its dict form.

    Accepts exactly the output of :func:`engine_config_to_dict`
    (unknown keys raise, matching the dataclass constructors), and
    re-runs every ``__post_init__`` validation on the way in.
    """
    fields = dict(data)
    device = fields.pop("device", None)
    mapping = fields.pop("mapping", None)
    encoding = fields.pop("encoding", None)
    return CrossbarEngineConfig(
        device=DeviceConfig(**device) if device is not None else PIPELAYER_DEVICE,
        mapping=WeightMapping(**mapping) if mapping is not None else WeightMapping(),
        encoding=(
            InputEncoding(**encoding)
            if encoding is not None
            else InputEncoding(bits=8)
        ),
        **fields,
    )


#: Digital accumulator width (bits) a result word occupies in the
#: output buffer — mirrors ``repro.core.pipelayer.ACCUMULATOR_BITS``
#: (the xbar layer must not import the core layer).
_ACCUMULATOR_BITS = 16


@dataclass
class _VectorizedState:
    """Per-prepare() cache backing the vectorized backend.

    ``gmat`` is the stacked conductance tensor of every physical
    array of every slice plane, pre-transposed into the batched-matmul
    layout ``(grid_rows, array_rows, n_planes * logical_cols)``: only
    programmed bit lines are stacked, so block column ``j`` of a plane
    owns columns ``[j * array_cols, min((j + 1) * array_cols,
    logical_cols))`` of that plane's slab, while padded word lines
    stay (they carry zero drive).  ``plane_weights`` carries each
    plane's signed shift-and-add factor (``±radix**slice``).  Built
    lazily on the first vectorized matmul and invalidated whenever
    ``prepare()`` reprograms the arrays.  When the ADC is transparent
    (see ``collapsed``), ``gmat`` is ``None`` — the stacked path is
    never taken.
    """

    gmat: Optional[np.ndarray]
    plane_weights: np.ndarray
    arrays: list  # [plane][grid_row][grid_col] -> CrossbarArray
    adc: ADCConfig
    grid_rows: int
    grid_cols: int
    n_planes: int
    #: Combined signed effective level matrix (logical shape), present
    #: only when the ADC is provably transparent for this config — the
    #: effective-weights cache that collapses the whole bit-serial
    #: evaluation into one matmul.  Invalidated with the rest of the
    #: state whenever ``prepare()`` reprograms the arrays.
    collapsed: Optional[np.ndarray] = None


#: Soft cap (float64 elements) on the intermediate partial-sum tensor
#: of one vectorized chunk (~128 MB).  Rate coding drives hundreds of
#: sub-cycles per MVM; chunking the sub-cycle axis keeps memory flat
#: while preserving the per-array RNG stream order (sequential chunks
#: consume a generator exactly like one big draw).
_VECTOR_CHUNK_ELEMENTS = 16_000_000


class CrossbarEngine(MatmulEngine):
    """Simulated ReRAM PIM matmul engine (see module docstring)."""

    def __init__(
        self,
        config: Optional[CrossbarEngineConfig] = None,
        rng: RngLike = None,
        collector: Optional[TelemetryLike] = None,
    ) -> None:
        self.config = config or CrossbarEngineConfig()
        self._rng = new_rng(rng)
        # Counters always flow through a collector; without an external
        # one the engine owns a private, span-free instance.  An attached
        # collector (usually a per-layer scope from deploy_network)
        # additionally receives prepare/matmul timing spans and the
        # per-tile counter hierarchy.
        self.telemetry: TelemetryLike = (
            collector
            if collector is not None
            else Collector(record_spans=False)
        )
        self._sliced: Optional[SlicedWeights] = None
        self._tiles: Dict[Tuple[str, int], TiledCrossbar] = {}
        self._tile_paths: Dict[Tuple[str, int], str] = {}
        self._cached_weights: Optional[np.ndarray] = None
        self._cached_weights_hash: Optional[str] = None
        self._quantized: Optional[np.ndarray] = None
        self._coder = SpikeCoder(self.config.encoding)
        self._rate_coder = RateCoder(self.config.encoding)
        self._dac = AnalogDAC(self.config.encoding)
        self._effective: Optional[np.ndarray] = None
        self._vector: Optional[_VectorizedState] = None

    # -- weight programming -------------------------------------------------
    def prepare(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got {weights.shape}")
        incoming_hash = weights_hash(weights)
        if self._cached_weights_hash == incoming_hash:
            # Same programmed state: skip the reprogram entirely.  The
            # skip is counted so callers (the facade's in-process runs,
            # the serve layer's cache) can observe avoided programming.
            self.telemetry.count("prepare.skips", 1)
            return
        reuse_tiles = (
            self._cached_weights is not None
            and self._cached_weights.shape == weights.shape
        )
        self._cached_weights = weights.copy()
        self._cached_weights_hash = incoming_hash
        sliced = map_weights(weights, self.config.mapping)
        self._sliced = sliced
        radix = 2**sliced.mapping.cell_bits
        quantized = np.zeros(weights.shape)
        for index, plane in enumerate(sliced.pos_slices):
            quantized += plane.astype(np.float64) * float(radix) ** index
        negative = np.zeros(weights.shape)
        for index, plane in enumerate(sliced.neg_slices):
            negative += plane.astype(np.float64) * float(radix) ** index
        self._quantized = quantized - negative - sliced.offset_int

        adc = self.config.adc_config()
        planes = [("pos", sliced.pos_slices)]
        if sliced.mapping.scheme == "differential":
            planes.append(("neg", sliced.neg_slices))
        rows, cols = weights.shape
        _log.debug(
            "programming %dx%d weights onto %d slice plane group(s) "
            "(backend=%s, reuse_tiles=%s)",
            rows,
            cols,
            len(planes),
            self.config.backend,
            reuse_tiles,
        )
        if not reuse_tiles:
            # First deployment (or a reshape): build the physical
            # arrays.  Subsequent prepares *reprogram the same arrays*
            # — the cells, and in particular their stuck-fault masks,
            # persist across weight updates like real hardware.
            self._tiles = {}
            self._tile_paths = {}
            for plane_name, slices in planes:
                for slice_index in range(len(slices)):
                    self._tiles[(plane_name, slice_index)] = TiledCrossbar(
                        rows,
                        cols,
                        self.config.device,
                        array_rows=self.config.array_rows,
                        array_cols=self.config.array_cols,
                        adc=adc,
                        rng=derive_seed(
                            self._rng, f"{plane_name}:{slice_index}"
                        ),
                    )
                    # Component paths are built once: the matmul hot
                    # loops only ever do dict increments.
                    self._tile_paths[(plane_name, slice_index)] = (
                        f"tile[{plane_name},{slice_index}]"
                    )
        tel = self.telemetry
        with tel.span("prepare"):
            for plane_name, slices in planes:
                for slice_index, level_plane in enumerate(slices):
                    tile = self._tiles[(plane_name, slice_index)]
                    tile.program(level_plane)
                    tel.count("array_programs", tile.array_count)
                    # Write pulses hit every cell of every programmed
                    # physical array (edge arrays are padded, so the
                    # full rows x cols grid is pulsed).
                    tel.count(
                        "cell_writes",
                        tile.array_count
                        * self.config.array_rows
                        * self.config.array_cols,
                    )
                    tel.count(
                        self._tile_paths[(plane_name, slice_index)]
                        + "/programs",
                        tile.array_count,
                    )
            tel.count("weights_programmed", int(weights.size))
        # program() changed the physical state: both derived caches
        # (effective matrix, stacked conductance tensor) are stale.
        self._effective = None
        self._vector = None

    @property
    def array_count(self) -> int:
        """Physical arrays holding the prepared matrix (all planes)."""
        return sum(tile.array_count for tile in self._tiles.values())

    def cache_key(self) -> Tuple[str, str]:
        """``(weights_hash, device_config_hash)`` of the programmed state.

        Two engines with equal keys hold byte-identical programmed
        levels (same weights, same pipeline config), so one may stand
        in for the other without reprogramming.
        """
        if self._cached_weights_hash is None:
            raise RuntimeError("prepare() must be called first")
        return self._cached_weights_hash, device_config_hash(self.config)

    def info(self) -> dict:
        """Engine description surfaced by deployments and the facade."""
        return {
            "engine": "crossbar",
            "backend": self.config.backend,
            "input_mode": self.config.input_mode,
            "arrays": self.array_count,
        }

    def fault_report(self) -> Dict[str, object]:
        """Per-tile stuck-fault census across every programmed plane.

        One entry per (sign plane, weight slice) tile with its array
        grid and stuck-cell totals, plus engine-level totals — the
        defect observability consumed by :mod:`repro.reliability`.
        """
        if self._sliced is None:
            raise RuntimeError("prepare() must be called first")
        tiles = []
        totals = {"cells": 0, "stuck_off": 0, "stuck_on": 0}
        for (plane_name, slice_index), tile in sorted(self._tiles.items()):
            census = tile.fault_census()
            tiles.append(
                {
                    "plane": plane_name,
                    "slice": slice_index,
                    "grid": census["grid"],
                    "cells": census["cells"],
                    "stuck_off": census["stuck_off"],
                    "stuck_on": census["stuck_on"],
                }
            )
            for key in totals:
                totals[key] += census[key]
        return {"schema_version": SCHEMA_VERSION, **totals, "tiles": tiles}

    def quantized_weights(self) -> np.ndarray:
        """The integer weight matrix the crossbars represent (scaled)."""
        if self._sliced is None or self._quantized is None:
            raise RuntimeError("prepare() must be called first")
        return self._quantized * self._sliced.scale

    def effective_weights(self) -> np.ndarray:
        """The matrix the arrays physically hold (scaled, with noise).

        Assembles the per-slice effective levels from every programmed
        array — the matrix an ideal read path would apply.  Equals
        :meth:`quantized_weights` for an ideal device; differs under
        programming noise or stuck faults.
        """
        if self._sliced is None:
            raise RuntimeError("prepare() must be called first")
        if self._effective is None:
            radix = float(2**self._sliced.mapping.cell_bits)
            effective = np.zeros(self._cached_weights.shape)
            for (plane_name, slice_index), tile in self._tiles.items():
                sign = -1.0 if plane_name == "neg" else 1.0
                effective += (
                    sign * radix**slice_index * tile.effective_logical()
                )
            effective -= self._sliced.offset_int
            self._effective = effective
        return self._effective * self._sliced.scale

    # -- evaluation ------------------------------------------------------------
    def matmul(self, activations: np.ndarray) -> np.ndarray:
        if self._sliced is None or self._quantized is None:
            raise RuntimeError("prepare() must be called before matmul()")
        activations = np.asarray(activations, dtype=np.float64)
        if activations.ndim != 2:
            raise ValueError(
                f"activations must be 2-D, got {activations.shape}"
            )
        if activations.shape[1] != self._cached_weights.shape[0]:
            raise ValueError(
                f"activations width {activations.shape[1]} != weight rows "
                f"{self._cached_weights.shape[0]}"
            )
        tel = self.telemetry
        tel.count("mvm_calls", 1)
        # Multiply-accumulates of this call, counted in the shared
        # dispatch so both backends (and the fast-ideal collapse)
        # report identical work — the denominator of the ADC-per-MAC
        # efficiency metric in repro.telemetry.analysis.
        tel.count(
            "macs",
            activations.shape[0]
            * self._cached_weights.shape[0]
            * self._cached_weights.shape[1],
        )

        max_abs = self.config.activation_range
        if max_abs is None:
            observed = float(np.max(np.abs(activations))) if activations.size else 0.0
            if observed == 0.0:
                return np.zeros(
                    (activations.shape[0], self._cached_weights.shape[1])
                )
            max_abs = observed
        pos_int, neg_int, a_scale = quantize_activations(
            activations, self.config.encoding, max_abs
        )

        if self.config.fast_ideal and self.config.is_ideal:
            tel.count("fast_ideal_calls", 1)
            signed = (pos_int - neg_int).astype(np.float64)
            return signed @ self._quantized * (a_scale * self._sliced.scale)
        if self.config.fast_linear and self.config.is_linear:
            # Opt-in idealisation: with noise only in programming and a
            # clean read path, apply the effective programmed matrix in
            # one matmul.  This drops the ADC's per-read integer
            # rounding of noisy (fractional) partial sums — a real
            # physical effect the full path keeps — so it is an
            # *approximation* (typically a few percent under 5%
            # programming noise), intended for fast crossbar-in-the-
            # loop training studies.
            tel.count("fast_ideal_calls", 1)
            signed = (pos_int - neg_int).astype(np.float64)
            return signed @ self.effective_weights() * a_scale
        with tel.span("matmul"):
            if self.config.backend == "vectorized":
                return self._full_path_vectorized(pos_int, neg_int, a_scale)
            return self._full_path_loop(pos_int, neg_int, a_scale)

    def _full_path_loop(
        self, pos_int: np.ndarray, neg_int: np.ndarray, a_scale: float
    ) -> np.ndarray:
        """Bit-serial, slice-by-slice evaluation through the arrays.

        The reference oracle for ``backend="vectorized"``: one
        :meth:`TiledCrossbar.mvm` per (sub-cycle, slice plane), exactly
        as the module docstring narrates the hardware.
        """
        sliced = self._sliced
        radix = float(2**sliced.mapping.cell_bits)
        batch = pos_int.shape[0]
        cols = self._cached_weights.shape[1]
        accumulator = np.zeros((batch, cols))
        call_subcycles = 0
        tel = self.telemetry

        for input_sign, integers in ((1.0, pos_int), (-1.0, neg_int)):
            if not np.any(integers):
                continue
            if self.config.input_mode == "spike":
                planes = self._coder.decompose(integers)
                weights_per_plane = [2.0**j for j in range(len(planes))]
            elif self.config.input_mode == "rate":
                planes = self._rate_coder.decompose(integers)
                weights_per_plane = [1.0] * len(planes)
            else:
                planes = [self._dac.drive(integers)]
                weights_per_plane = [1.0]
            for plane, plane_weight in zip(planes, weights_per_plane):
                call_subcycles += 1
                for (plane_name, slice_index), tile in self._tiles.items():
                    partial = tile.mvm(plane)
                    weight_sign = -1.0 if plane_name == "neg" else 1.0
                    accumulator += (
                        input_sign
                        * weight_sign
                        * plane_weight
                        * radix**slice_index
                        * partial
                    )
                    tile_path = self._tile_paths[(plane_name, slice_index)]
                    tel.count("array_reads", tile.array_count * batch)
                    tel.count(
                        tile_path + "/reads", tile.array_count * batch
                    )
                    tel.count(
                        "adc_conversions", batch * tile.logical_cols
                    )
                    tel.count(
                        tile_path + "/adc.conversions",
                        batch * tile.logical_cols,
                    )
            if sliced.mapping.scheme == "offset":
                # Remove the stored offset: offset * sum_i(x_i), digital.
                row_sums = integers.sum(axis=1, keepdims=True).astype(np.float64)
                accumulator -= input_sign * sliced.offset_int * row_sums

        self._record_call_events(call_subcycles, batch)
        self.telemetry.count("subcycles", call_subcycles)
        return accumulator * (a_scale * sliced.scale)

    def _record_call_events(self, call_subcycles: int, batch: int) -> None:
        """Physical event counters of one full-path matmul call.

        Both backends call this with the same ``call_subcycles`` and
        ``batch``, and every term below is a pure function of those
        plus the prepared geometry — so the event counters (and the
        energy attributed from them) are bit-identical across backends
        by construction.  Per array read: every word line fires
        (spike-driver/DAC lines), every bit line converts (I&F ADC)
        and merges (shift-add), matching
        :func:`repro.arch.components.array_subcycle_energy` exactly
        when priced through ``event_costs``.  Buffer traffic per call:
        the drive planes read the activations once per image
        (``rows x encoding bits``) and the results write back at
        accumulator width.  Static occupancy counts array- and
        controller-sub-cycles, the time base average power divides by.
        """
        tel = self.telemetry
        arrays_total = sum(
            tile.array_count for tile in self._tiles.values()
        )
        reads = call_subcycles * arrays_total * batch
        tel.count("dac.line_fires", reads * self.config.array_rows)
        tel.count("adc.samples", reads * self.config.array_cols)
        tel.count("shift_adds", reads * self.config.array_cols)
        logical_rows, logical_cols = self._cached_weights.shape
        tel.count(
            "buffer.bits",
            batch * logical_rows * self.config.encoding.bits
            + batch * logical_cols * _ACCUMULATOR_BITS,
        )
        tel.count("static.array_subcycles", reads)
        tel.count("static.controller_subcycles", call_subcycles * batch)

    # -- vectorized backend -------------------------------------------------
    def _decompose_drive(
        self, integers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One input sign's sub-cycle stack and per-plane weights.

        Returns ``(planes, weights)``: ``planes`` is ``(subcycles,
        batch, rows)`` word-line drive — the same planes, in the same
        order, the loop backend feeds to the arrays one at a time —
        and ``weights`` the shift-and-add factor of each sub-cycle.
        """
        if self.config.input_mode == "spike":
            planes = self._coder.decompose(integers)
            weights = [2.0**j for j in range(len(planes))]
        elif self.config.input_mode == "rate":
            planes = self._rate_coder.decompose(integers)
            weights = [1.0] * len(planes)
        else:
            planes = [self._dac.drive(integers)]
            weights = [1.0]
        return np.stack(planes), np.asarray(weights)

    def _adc_transparent(self, adc: ADCConfig) -> bool:
        """True when every per-array conversion is provably the identity.

        Requires integer effective level matrices (no programming
        noise, no IR drop — stuck faults are fine, a stuck cell is
        still an integer level), a noiseless read path, and a
        unit-grid ADC whose range covers the worst-case column sum of
        this drive mode.  Under those conditions every pre-ADC partial
        sum is an integer already on the count grid and inside range,
        so clip+round returns it unchanged — which licenses the
        sub-cycle collapse in :meth:`_full_path_vectorized`.
        """
        device = self.config.device
        if (
            device.program_noise != 0.0
            or device.read_noise != 0.0
            or device.has_transient_faults
            or device.wire_resistance != 0.0
        ):
            return False
        needed = self.config.array_rows * (device.levels - 1)
        if self.config.input_mode == "analog":
            needed *= self.config.encoding.max_int
        return (
            adc.levels_per_count == 1.0
            and adc.max_count >= needed
            and adc.full_scale_levels >= needed
        )

    def _vector_state(self) -> _VectorizedState:
        """Build (or reuse) the stacked-conductance cache."""
        if self._vector is not None:
            return self._vector
        tiles = self._tiles
        first = next(iter(tiles.values()))
        grid_rows, grid_cols = first.grid_rows, first.grid_cols
        rows, cols = self.config.array_rows, self.config.array_cols
        radix = float(2**self._sliced.mapping.cell_bits)
        n_planes = len(tiles)
        arrays = []
        plane_weights = np.empty(n_planes)
        for index, ((plane_name, slice_index), tile) in enumerate(
            tiles.items()
        ):
            arrays.append(tile.arrays)
            sign = -1.0 if plane_name == "neg" else 1.0
            plane_weights[index] = sign * radix**slice_index
        adc = first.arrays[0][0].adc.config
        collapsed: Optional[np.ndarray] = None
        gmat: Optional[np.ndarray] = None
        if self._adc_transparent(adc):
            # Effective-weights cache: with a transparent ADC the whole
            # bit-serial evaluation equals one matmul against the
            # combined signed effective level matrix (see
            # _full_path_vectorized).  The stacked tensor is skipped
            # entirely — it would never be read.
            collapsed = np.zeros(self._cached_weights.shape)
            for (plane_name, slice_index), tile in tiles.items():
                sign = -1.0 if plane_name == "neg" else 1.0
                collapsed += (
                    sign * radix**slice_index * tile.effective_logical()
                )
        else:
            # Block column j's live columns are the logical columns it
            # holds, so the blocks laid side by side and cut at
            # logical_cols keep exactly the programmed bit lines.
            logical_cols = self._cached_weights.shape[1]
            stacked = np.empty((grid_rows, rows, n_planes, logical_cols))
            for index, tile in enumerate(tiles.values()):
                # (g, h, R, C) -> (g, R, h*C) -> (g, R, L).
                stacked[:, :, index, :] = (
                    tile.level_blocks()
                    .transpose(0, 2, 1, 3)
                    .reshape(grid_rows, rows, grid_cols * cols)[
                        :, :, :logical_cols
                    ]
                )
            # (g, R, P*L): one batched matmul per MVM.
            gmat = stacked.reshape(grid_rows, rows, n_planes * logical_cols)
        self._vector = _VectorizedState(
            gmat=gmat,
            plane_weights=plane_weights,
            arrays=arrays,
            adc=adc,
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            n_planes=n_planes,
            collapsed=collapsed,
        )
        return self._vector

    def _accumulate_vectorized(
        self,
        state: _VectorizedState,
        planes: np.ndarray,
        plane_weights: np.ndarray,
        input_sign: float,
        accumulator: np.ndarray,
        logical_cols: int,
    ) -> None:
        """Run a ``(subcycles, batch, rows)`` drive stack through the arrays.

        Adds one input sign's shift-and-add total into ``accumulator``
        with every physical effect applied where the loop backend
        applies it: per-array read noise (drawn from each array's own
        stream in sub-cycle order), the I&F ADC on each array's columns
        *before* the vertical partial-sum add, then the sequential
        row-block fold of :meth:`TiledCrossbar.mvm`.  Partial sums are
        laid out ``(grid_rows, span, batch, n_planes, logical_cols)``;
        each array is the view ``[block_row, :, :, plane, c0:c1]`` over
        its live columns and draws ``(span, batch, c1 - c0)`` per
        effect, as the loop's ``span`` sequential ``(batch, c1 - c0)``
        draws would.  The sub-cycle axis is chunked to bound memory;
        chunks run in sub-cycle order so the RNG streams and the
        accumulation order are exactly the loop backend's.
        """
        device = self.config.device
        grid_rows, grid_cols = state.grid_rows, state.grid_cols
        rows, cols = self.config.array_rows, self.config.array_cols
        n_planes = state.n_planes
        subcycles, batch, logical_rows = planes.shape

        padded = np.zeros((subcycles, batch, grid_rows * rows))
        padded[:, :, :logical_rows] = planes
        blocked = padded.reshape(subcycles, batch, grid_rows, rows)

        per_subcycle = batch * n_planes * grid_rows * logical_cols
        chunk = max(1, _VECTOR_CHUNK_ELEMENTS // per_subcycle)
        # On a unit count grid every post-ADC value is an integer, so
        # any summation order is exact and one einsum suffices.  On a
        # fractional grid (lossy ADC) the summands carry rounding, so
        # the loop backend's accumulation order is replicated term by
        # term to stay bit-identical.
        exact_grid = state.adc.levels_per_count == 1.0
        for start in range(0, subcycles, chunk):
            part = blocked[start : start + chunk]  # (K, B, g, R)
            span = part.shape[0]
            drive = np.ascontiguousarray(part.transpose(2, 0, 1, 3)).reshape(
                grid_rows, span * batch, rows
            )
            levels = np.matmul(drive, state.gmat).reshape(
                grid_rows, span, batch, n_planes, logical_cols
            )
            # Per-array read-path effects in the loop backend's order:
            # drift scales the signal, then Gaussian read noise, then
            # transient upsets.  Each effect draws from its own child
            # stream per array, so a stacked (span, ...) draw consumes
            # each stream exactly like the loop's sequential
            # per-sub-cycle draws; drift is a deterministic per-event
            # factor from the same read clock the loop advances.
            drift = device.drift_nu > 0.0
            noise = device.read_noise > 0.0
            upsets = device.upset_rate > 0.0
            if drift or noise or upsets:
                for plane in range(n_planes):
                    for block_row in range(grid_rows):
                        for block_col in range(grid_cols):
                            array = state.arrays[plane][block_row][block_col]
                            c0 = block_col * cols
                            c1 = min(c0 + cols, logical_cols)
                            view = levels[block_row, :, :, plane, c0:c1]
                            if drift:
                                view *= array.drift_factors(span)[
                                    :, None, None
                                ]
                            if noise:
                                view += array.read_noise_levels(
                                    (span, batch, c1 - c0)
                                )
                            if upsets:
                                view += array.transient_upset_levels(
                                    (span, batch, c1 - c0)
                                )
            quantized = quantize_levels(levels, state.adc)
            folded = quantized[0].copy()
            for block_row in range(1, grid_rows):
                folded += quantized[block_row]
            weights = plane_weights[start : start + span]
            if exact_grid:
                accumulator += input_sign * np.einsum(
                    "kbpn,k,p->bn", folded, weights, state.plane_weights
                )
            else:
                for sub in range(span):
                    for plane in range(n_planes):
                        accumulator += (
                            input_sign
                            * weights[sub]
                            * state.plane_weights[plane]
                        ) * folded[sub, :, plane, :]

    def _full_path_vectorized(
        self, pos_int: np.ndarray, neg_int: np.ndarray, a_scale: float
    ) -> np.ndarray:
        """Batched evaluation: all sub-cycles through stacked tensors.

        Bit-for-bit equivalent to :meth:`_full_path_loop` under a
        shared seed (covered by the backend-equivalence property
        tests): the level matrices, the per-array noise draws, the ADC
        transfer function, and the accumulation order all match the
        loop backend exactly.

        When every per-array ADC conversion is provably the identity
        (:meth:`_adc_transparent`), the sub-cycle loop collapses
        algebraically: the drive planes of one input sign recombine to
        the integer activations (``sum_k w_k * plane_k = integers`` in
        all three modes), so the whole evaluation is one matmul with
        the cached combined effective level matrix.  Every quantity
        involved is an exact float64 integer, so the single matmul is
        bit-identical to the loop's K*P*grid small ones regardless of
        BLAS summation order — this is where the >=10x throughput over
        the loop backend comes from.  Stats still account the full
        bit-serial schedule: the simulated hardware runs every
        sub-cycle; only the simulation skips redundant arithmetic.
        """
        sliced = self._sliced
        state = self._vector_state()
        batch = pos_int.shape[0]
        logical_cols = self._cached_weights.shape[1]
        accumulator = np.zeros((batch, logical_cols))
        call_subcycles = 0
        if self.config.input_mode == "spike":
            subcycles_per_sign = self._coder.subcycles
        elif self.config.input_mode == "rate":
            subcycles_per_sign = self._rate_coder.subcycles
        else:
            subcycles_per_sign = self._dac.subcycles

        for input_sign, integers in ((1.0, pos_int), (-1.0, neg_int)):
            if not np.any(integers):
                continue
            if state.collapsed is not None:
                accumulator += input_sign * (
                    integers.astype(np.float64) @ state.collapsed
                )
                call_subcycles += subcycles_per_sign
            else:
                planes, plane_weights = self._decompose_drive(integers)
                self._accumulate_vectorized(
                    state,
                    planes,
                    plane_weights,
                    input_sign,
                    accumulator,
                    logical_cols,
                )
                call_subcycles += planes.shape[0]
            if sliced.mapping.scheme == "offset":
                row_sums = integers.sum(axis=1, keepdims=True).astype(
                    np.float64
                )
                accumulator -= input_sign * sliced.offset_int * row_sums

        # Mirror the loop backend's operation accounting exactly —
        # engine totals, per-tile telemetry paths, and per-array
        # read/conversion counters all match the bit-serial schedule.
        tel = self.telemetry
        arrays_total = state.n_planes * state.grid_rows * state.grid_cols
        tel.count("array_reads", call_subcycles * arrays_total * batch)
        tel.count(
            "adc_conversions",
            call_subcycles * state.n_planes * batch * logical_cols,
        )
        for key, tile in self._tiles.items():
            tile_path = self._tile_paths[key]
            tel.count(
                tile_path + "/reads",
                call_subcycles * tile.array_count * batch,
            )
            tel.count(
                tile_path + "/adc.conversions",
                call_subcycles * batch * tile.logical_cols,
            )
        reads = call_subcycles * batch
        conversions = call_subcycles * batch * self.config.array_cols
        for tile_arrays in state.arrays:
            for row in tile_arrays:
                for array in row:
                    array.reads += reads
                    array.adc.conversions += conversions
        self._record_call_events(call_subcycles, batch)
        self.telemetry.count("subcycles", call_subcycles)
        return accumulator * (a_scale * sliced.scale)

def validate_fault_report(document: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``document`` is a fault census.

    Checks the shape :meth:`CrossbarEngine.fault_report` emits:
    engine-level stuck-cell totals plus per-tile entries, with the
    totals equal to the sum over tiles.
    """
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported fault_report schema_version "
            f"{document.get('schema_version')!r}"
        )
    tiles = document.get("tiles")
    if not isinstance(tiles, list):
        raise ValueError("fault_report must carry a tiles list")
    sums = {"cells": 0, "stuck_off": 0, "stuck_on": 0}
    for tile in tiles:
        if not isinstance(tile, dict):
            raise ValueError("fault_report tiles must be dicts")
        for key in ("plane", "slice", "grid"):
            if key not in tile:
                raise ValueError(f"fault_report tile missing {key!r}")
        for key in sums:
            value = tile.get(key)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"fault_report tile {key} must be a "
                    f"non-negative int, got {value!r}"
                )
            sums[key] += value
    for key, expected in sums.items():
        if document.get(key) != expected:
            raise ValueError(
                f"fault_report total {key}={document.get(key)!r} "
                f"disagrees with tile sum {expected}"
            )
