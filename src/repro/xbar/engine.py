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

Each datapath decision is made once.  The drive coder of the
``input_mode`` (:class:`~repro.xbar.dac.DriveCoder`) supplies the
planes, plane weights and sub-cycle count both backends use.  ADC
exactness is one test, :attr:`CrossbarEngineConfig.adc_is_exact`; the
successively narrower predicates ``is_linear`` (exact read path),
``is_collapsible`` (plus integer levels) and ``is_ideal`` (plus no
stuck cells) are built on it.  One tally,
:meth:`CrossbarEngine._record_call_events`, books every counter of a
full-path call from its sub-cycles, batch and geometry.

With an ideal device and a lossless ADC the pipeline is exactly integer
matmul; ``fast_ideal`` exploits that identity to skip the bit-serial
loop (the equivalence is covered by tests).  ``fast_linear`` applies the
effective programmed matrix in one matmul when the read path is linear,
an approximation that drops the ADC's rounding of noisy partial sums
(bounded by ``test_linear_path_close_to_full_path``).

Two interchangeable backends evaluate the full datapath:

``backend="loop"``
    The reference oracle: nested Python loops over input sub-cycles,
    slice planes, and physical arrays — one :meth:`TiledCrossbar.mvm`
    per (sub-cycle, plane).  Slow but structurally identical to the
    hardware description above.
``backend="vectorized"`` (default)
    Stacks the programmed bit lines of every slice plane of every tile
    into one conductance tensor, evaluates all sub-cycles of a batch
    with one matmul per block row over its live word lines, and applies
    the I&F ADC quantization across the whole stack at once.
    Bit-for-bit identical to the loop backend under a shared seed: read
    noise is drawn from each array's own generator in sub-cycle order
    (a stacked draw consumes a numpy ``Generator`` exactly like
    sequential per-sub-cycle draws); each array's upset stream hands
    out the upsets of its next outputs by position, drawing only those
    that fire, so both backends scatter-add the same impulses however
    the reads are split into calls; and both backends share one ADC
    transfer function (:func:`repro.xbar.adc.quantize_levels`).  When
    the config ``is_collapsible`` — every per-array conversion is
    provably the identity — the sub-cycle loop collapses onto the
    cached signed level sum (the same matrix
    :meth:`CrossbarEngine.effective_weights` scales), turning the whole
    evaluation into one exact integer matmul (~100x over the loop
    backend on a 256x256 layer).

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
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.nn.engine import MatmulEngine
from repro.telemetry import SCHEMA_VERSION, Collector, TelemetryLike
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive_seed, new_rng
from repro.utils.validation import (
    COUNT,
    check_choice,
    check_document,
    check_positive,
)
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

#: Word-line driver of each ``input_mode``.
_CODERS = {"spike": SpikeCoder, "rate": RateCoder, "analog": AnalogDAC}


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
        check_choice("input_mode", self.input_mode, tuple(_CODERS))
        check_choice("backend", self.backend, ("loop", "vectorized"))
        if self.adc_bits is not None:
            check_positive("adc_bits", self.adc_bits)
        if self.activation_range is not None:
            check_positive("activation_range", self.activation_range)

    @property
    def column_sum_bound(self) -> int:
        """Worst-case column sum of one array read, in level units.

        Every cell at its top level under full drive: spike and rate
        drive are binary, the analog DAC drives up to ``max_int``.
        """
        amplitude = self.encoding.max_int if self.input_mode == "analog" else 1
        return self.array_rows * (self.device.levels - 1) * amplitude

    def adc_config(self) -> ADCConfig:
        """ADC for one physical array under this drive mode.

        ``adc_bits=None`` sizes a lossless converter for
        :attr:`column_sum_bound` (one count per level unit); otherwise
        that bound maps to the full ``2**adc_bits - 1`` count.
        """
        if self.adc_bits is None:
            # lossless_for sizes for rows * (cell_levels - 1) level
            # units; two-level "cells" make that the bound itself.
            return ADCConfig.lossless_for(self.column_sum_bound, 2)
        return ADCConfig(
            bits=self.adc_bits, full_scale_levels=float(self.column_sum_bound)
        )

    @cached_property
    def adc_is_exact(self) -> bool:
        """True when the ADC converts every integer column sum unchanged.

        Needs one count per level unit (so the full scale equals the
        count range) and a count range covering
        :attr:`column_sum_bound`.  The datapath predicates below narrow
        this one step at a time.  Cached: the config is frozen and every
        fast-path dispatch asks.
        """
        adc = self.adc_config()
        return (
            adc.levels_per_count == 1.0
            and adc.max_count >= self.column_sum_bound
        )

    @property
    def is_linear(self) -> bool:
        """True when the read path is exact (noise only in programming).

        With no read noise, no transient faults and an exact ADC, the
        bit-serial pipeline is a linear function of the word-line drive,
        so the whole evaluation collapses to one matmul with the
        *effective* programmed matrix — up to the ADC's half-count
        rounding of non-integer (noisy-cell) partial sums, which the
        ``fast_linear`` path approximates away (bounded by half an
        output LSB).
        """
        device = self.device
        return (
            device.read_noise == 0.0
            and not device.has_transient_faults
            and self.adc_is_exact
        )

    @property
    def is_collapsible(self) -> bool:
        """True when every per-array conversion is provably the identity.

        A linear read path over integer effective levels (no
        programming noise, no IR drop; a stuck cell still holds an
        integer level): every pre-ADC partial sum is an integer inside
        the exact range, so the full path may evaluate all sub-cycles
        as one exact matmul with the combined effective level matrix.
        """
        device = self.device
        return (
            device.program_noise == 0.0
            and device.wire_resistance == 0.0
            and self.is_linear
        )

    @property
    def is_ideal(self) -> bool:
        """True when the pipeline equals exact integer matmul."""
        device = self.device
        return (
            device.stuck_off_rate == 0.0
            and device.stuck_on_rate == 0.0
            and self.is_collapsible
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
    array of every slice plane, laid out ``(grid_rows, array_rows,
    n_planes * logical_cols)`` so each block row is one matmul: only
    programmed bit lines are stacked, so block column ``j`` of a plane
    owns columns ``[j * array_cols, min((j + 1) * array_cols,
    logical_cols))`` of that plane's slab.  Padded word lines stay in
    the tensor, but a read multiplies only a block row's live ones
    (the rest carry zero drive).  ``plane_weights`` carries each
    plane's signed shift-and-add factor (``±radix**slice``).  Built
    lazily on the first vectorized matmul and invalidated whenever
    ``prepare()`` reprograms the arrays.  When the config
    :attr:`~CrossbarEngineConfig.is_collapsible`, ``collapsed`` holds
    the engine's signed level sum instead and ``gmat`` is ``None`` —
    the stacked path is never taken.
    """

    gmat: Optional[np.ndarray]
    plane_weights: np.ndarray
    #: ``(array, plane, block_row, c0, c1)`` for every physical array:
    #: its live columns are ``[c0, c1)`` of its plane's slab.
    placements: list
    adc: ADCConfig
    grid_rows: int
    grid_cols: int
    n_planes: int
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
        #: Signed shift-and-add factor of each tile: ``±radix**slice``.
        self._tile_weights: Dict[Tuple[str, int], float] = {}
        self._cached_weights: Optional[np.ndarray] = None
        self._cached_weights_hash: Optional[str] = None
        self._quantized: Optional[np.ndarray] = None
        self._coder = _CODERS[self.config.input_mode](self.config.encoding)
        self._signed_levels: Optional[np.ndarray] = None
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
            self._tile_weights = {}
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
                    sign = -1.0 if plane_name == "neg" else 1.0
                    self._tile_weights[(plane_name, slice_index)] = (
                        sign * float(radix) ** slice_index
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
        # (signed level sum, stacked conductance tensor) are stale.
        self._signed_levels = None
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

        Built from every programmed array's effective levels — the
        matrix an ideal read path would apply.  Equals
        :meth:`quantized_weights` for an ideal device; differs under
        programming noise or stuck faults.
        """
        if self._sliced is None:
            raise RuntimeError("prepare() must be called first")
        effective = self._signed_level_sum() - self._sliced.offset_int
        return effective * self._sliced.scale

    def _signed_level_sum(self) -> np.ndarray:
        """Shift-and-add sum of every tile's effective levels (cached).

        ``sum_tile ±radix**slice * levels``: the integer-unit matrix an
        exact read path applies (before the offset), shared by
        :meth:`effective_weights` and the collapsed full path.
        Invalidated whenever ``prepare()`` reprograms the arrays.
        """
        if self._signed_levels is None:
            total = np.zeros(self._cached_weights.shape)
            for key, tile in self._tiles.items():
                total += self._tile_weights[key] * tile.effective_logical()
            self._signed_levels = total
        return self._signed_levels

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
            # An all-zero batch quantizes to zero drive under any range;
            # it still takes the path (and books the events) below.
            max_abs = observed or 1.0
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
        batch = pos_int.shape[0]
        accumulator = np.zeros((batch, self._cached_weights.shape[1]))
        call_subcycles = 0
        coder = self._coder
        for input_sign, integers in ((1.0, pos_int), (-1.0, neg_int)):
            if not np.any(integers):
                continue
            planes = coder.decompose(integers)
            for plane, plane_weight in zip(planes, coder.plane_weights):
                for key, tile in self._tiles.items():
                    accumulator += (
                        input_sign
                        * plane_weight
                        * self._tile_weights[key]
                        * tile.mvm(plane)
                    )
            call_subcycles += coder.subcycles
            if sliced.mapping.scheme == "offset":
                # Remove the stored offset: offset * sum_i(x_i), digital.
                row_sums = integers.sum(axis=1, keepdims=True).astype(np.float64)
                accumulator -= input_sign * sliced.offset_int * row_sums

        self._record_call_events(call_subcycles, batch)
        return accumulator * (a_scale * sliced.scale)

    def _record_call_events(self, call_subcycles: int, batch: int) -> None:
        """Operation and physical event counters of one full-path call.

        Both backends call this with the same ``call_subcycles`` and
        ``batch``, and every term below is a pure function of those
        plus the prepared geometry — so the counters (and the energy
        attributed from them) are bit-identical across backends by
        construction.  Every array of every tile is read once per
        sub-cycle and image, and converts its tile's logical columns.
        Per array read: every word line fires (spike-driver/DAC lines),
        every bit line converts (I&F ADC) and merges (shift-add),
        matching :func:`repro.arch.components.array_subcycle_energy`
        exactly when priced through ``event_costs``.  Buffer traffic
        per call: the drive planes read the activations once per image
        (``rows x encoding bits``) and the results write back at
        accumulator width.  Static occupancy counts array- and
        controller-sub-cycles, the time base average power divides by.
        """
        tel = self.telemetry
        logical_rows, logical_cols = self._cached_weights.shape
        reads = call_subcycles * self.array_count * batch
        tel.count("array_reads", reads)
        tel.count(
            "adc_conversions",
            call_subcycles * len(self._tiles) * batch * logical_cols,
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
        tel.count("dac.line_fires", reads * self.config.array_rows)
        tel.count("adc.samples", reads * self.config.array_cols)
        tel.count("shift_adds", reads * self.config.array_cols)
        tel.count(
            "buffer.bits",
            batch * logical_rows * self.config.encoding.bits
            + batch * logical_cols * _ACCUMULATOR_BITS,
        )
        tel.count("static.array_subcycles", reads)
        tel.count("static.controller_subcycles", call_subcycles * batch)
        tel.count("subcycles", call_subcycles)

    # -- vectorized backend -------------------------------------------------
    def _vector_state(self) -> _VectorizedState:
        """Build (or reuse) the stacked-conductance cache."""
        if self._vector is not None:
            return self._vector
        tiles = self._tiles
        first = next(iter(tiles.values()))
        grid_rows, grid_cols = first.grid_rows, first.grid_cols
        rows, cols = self.config.array_rows, self.config.array_cols
        n_planes = len(tiles)
        logical_cols = self._cached_weights.shape[1]
        collapsed: Optional[np.ndarray] = None
        gmat: Optional[np.ndarray] = None
        if self.config.is_collapsible:
            collapsed = self._signed_level_sum()
        else:
            # Block column j's live columns are the logical columns it
            # holds, so the blocks laid side by side and cut at
            # logical_cols keep exactly the programmed bit lines.
            stacked = np.empty((grid_rows, rows, n_planes, logical_cols))
            for index, tile in enumerate(tiles.values()):
                # (g*R, h*C) -> (g, R, h*C) -> (g, R, L).
                stacked[:, :, index, :] = tile.level_blocks().reshape(
                    grid_rows, rows, grid_cols * cols
                )[:, :, :logical_cols]
            # (g, R, P*L): one matmul per block row and chunk.
            gmat = stacked.reshape(grid_rows, rows, n_planes * logical_cols)
        self._vector = _VectorizedState(
            gmat=gmat,
            plane_weights=np.array([self._tile_weights[key] for key in tiles]),
            placements=[
                (
                    array,
                    plane,
                    block_row,
                    block_col * cols,
                    min((block_col + 1) * cols, logical_cols),
                )
                for plane, tile in enumerate(tiles.values())
                for block_row, row in enumerate(tile.arrays)
                for block_col, array in enumerate(row)
            ],
            adc=self.config.adc_config(),
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
        grid_rows, rows = state.grid_rows, self.config.array_rows
        n_planes = state.n_planes
        subcycles, batch, logical_rows = planes.shape
        per_subcycle = batch * n_planes * grid_rows * logical_cols
        chunk = max(1, _VECTOR_CHUNK_ELEMENTS // per_subcycle)
        # On a unit count grid every post-ADC value is an integer, so
        # any summation order is exact and one einsum suffices.  On a
        # fractional grid (lossy ADC) the summands carry rounding, so
        # the loop backend's accumulation order is replicated term by
        # term to stay bit-identical.
        exact_grid = state.adc.levels_per_count == 1.0
        drift = device.drift_nu > 0.0
        noise = device.read_noise > 0.0
        upsets = device.upset_rate > 0.0
        for start in range(0, subcycles, chunk):
            part = planes[start : start + chunk]  # (K, B, logical_rows)
            span = part.shape[0]
            # Each block row multiplies only its live word lines: the
            # padded ones carry zero drive, and trailing zero terms
            # leave every dot product bit-identical.
            width = n_planes * logical_cols
            levels = np.empty((grid_rows, span * batch, width))
            for block_row in range(grid_rows):
                r0 = block_row * rows
                live = min(rows, logical_rows - r0)
                np.matmul(
                    part[:, :, r0 : r0 + live].reshape(span * batch, live),
                    state.gmat[block_row, :live],
                    out=levels[block_row],
                )
            levels = levels.reshape(
                grid_rows, span, batch, n_planes, logical_cols
            )
            # Per-array read-path effects in the loop backend's order:
            # drift scales the signal (one multiply by every array's
            # factors for this chunk, from the read clock the loop
            # advances), then Gaussian read noise, then transient
            # upsets.  Each effect draws from its own child stream per
            # array, so a stacked (span, ...) draw consumes each stream
            # exactly like the loop's sequential per-sub-cycle draws.
            if drift:
                factors = np.empty(
                    (grid_rows, span, 1, n_planes, logical_cols)
                )
                for array, plane, block_row, c0, c1 in state.placements:
                    decay = array.drift_factors(span)
                    factors[block_row, :, 0, plane, c0:c1] = decay[:, None]
                levels *= factors
            if noise or upsets:
                for array, plane, block_row, c0, c1 in state.placements:
                    view = levels[block_row, :, :, plane, c0:c1]
                    if noise:
                        view += array.read_noise_levels(view.shape)
                    if upsets:
                        positions, amplitudes = array.transient_upset_levels(
                            view.shape
                        )
                        view[np.unravel_index(positions, view.shape)] += (
                            amplitudes
                        )
            quantized = quantize_levels(levels, state.adc)
            # The row-block fold, in the loop backend's order.
            folded = quantized[0]
            for block_row in range(1, grid_rows):
                folded = folded + quantized[block_row]
            weights = self._coder.plane_weights[start : start + span]
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
        (:attr:`CrossbarEngineConfig.is_collapsible`), the sub-cycle
        loop collapses algebraically: the drive planes of one input
        sign recombine to the integer activations (``sum_k w_k *
        plane_k = integers`` in all three modes), so the whole
        evaluation is one matmul with the cached signed level sum.
        Every quantity involved is an exact float64 integer, so the
        single matmul is bit-identical to the loop's K*P*grid small
        ones regardless of BLAS summation order — this is where the
        >=10x throughput over the loop backend comes from.  Stats still
        account the full bit-serial schedule: the simulated hardware
        runs every sub-cycle; only the simulation skips redundant
        arithmetic.
        """
        sliced = self._sliced
        state = self._vector_state()
        batch = pos_int.shape[0]
        logical_cols = self._cached_weights.shape[1]
        accumulator = np.zeros((batch, logical_cols))
        call_subcycles = 0
        for input_sign, integers in ((1.0, pos_int), (-1.0, neg_int)):
            if not np.any(integers):
                continue
            if state.collapsed is not None:
                accumulator += input_sign * (
                    integers.astype(np.float64) @ state.collapsed
                )
            else:
                self._accumulate_vectorized(
                    state,
                    self._coder.decompose(integers),
                    input_sign,
                    accumulator,
                    logical_cols,
                )
            call_subcycles += self._coder.subcycles
            if sliced.mapping.scheme == "offset":
                row_sums = integers.sum(axis=1, keepdims=True).astype(
                    np.float64
                )
                accumulator -= input_sign * sliced.offset_int * row_sums

        self._record_call_events(call_subcycles, batch)
        return accumulator * (a_scale * sliced.scale)


_FAULT_COUNTS = ("cells", "stuck_off", "stuck_on")

_FAULT_SHAPE = {
    "schema_version": SCHEMA_VERSION,
    **{key: int for key in _FAULT_COUNTS},
    "tiles": [{
        "plane": str, "slice": int, "grid": list,
        **{key: COUNT for key in _FAULT_COUNTS},
    }],
}


def validate_fault_report(document: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``document`` is a fault census.

    Checks the shape :meth:`CrossbarEngine.fault_report` emits:
    engine-level stuck-cell totals plus per-tile entries, with the
    totals equal to the sum over tiles.
    """
    check_document(document, _FAULT_SHAPE, "fault_report")
    for key in _FAULT_COUNTS:
        expected = sum(tile[key] for tile in document["tiles"])
        if document[key] != expected:
            raise ValueError(
                f"fault_report total {key}={document[key]!r} "
                f"disagrees with tile sum {expected}"
            )
