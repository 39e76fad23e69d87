"""Data input and kernel mapping (Sec. III-A-1, Fig. 4).

Two schemes are modelled:

* **Naive** (Fig. 4a): the whole lowered weight matrix occupies one
  logical array; input vectors enter sequentially, so a layer takes one
  cycle per output vector (the worked example: 12544 cycles).
* **Balanced** (Fig. 4b): the matrix is split into 128x128 physical
  arrays whose partial sums are collected horizontally and added
  vertically, and the whole group is duplicated into ``X`` copies fed
  with different input vectors in parallel.  ``X = 1`` degenerates to
  the naive scheme; ``X = output_vectors`` finishes a layer in one
  pass at maximal array cost.  "A good trade-off between hardware
  resource of ReRAM array and performance requires a carefully chosen
  X" — :func:`balance_duplication` chooses per-layer ``X`` under an
  array budget by equalising per-layer pass counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Optional, Sequence

from repro.utils.validation import check_positive
from repro.workloads.specs import LayerSpec
from repro.workloads.suite import NetworkSpec
from repro.xbar.mapping import WeightMapping
from repro.xbar.tile import tile_grid


@dataclass(frozen=True)
class MappingConfig:
    """Physical mapping parameters shared by all layers."""

    array_rows: int = 128
    array_cols: int = 128
    weight_mapping: WeightMapping = WeightMapping()
    activation_bits: int = 8

    def __post_init__(self) -> None:
        check_positive("array_rows", self.array_rows)
        check_positive("array_cols", self.array_cols)
        check_positive("activation_bits", self.activation_bits)


@dataclass(frozen=True)
class LayerMapping:
    """One layer placed on crossbar arrays with duplication ``X``."""

    layer: LayerSpec
    config: MappingConfig
    duplication: int

    def __post_init__(self) -> None:
        if not self.layer.is_matrix_layer:
            raise ValueError(
                f"layer kind {self.layer.kind!r} has no weight matrix to map"
            )
        check_positive("duplication", self.duplication)
        if self.duplication > self.layer.output_vectors:
            raise ValueError(
                f"duplication {self.duplication} exceeds the layer's "
                f"{self.layer.output_vectors} output vectors"
            )

    # -- geometry -----------------------------------------------------------
    @property
    def grid(self) -> tuple:
        """(row blocks, col blocks) of physical arrays per copy."""
        return tile_grid(
            self.layer.matrix_rows,
            self.layer.matrix_cols,
            self.config.array_rows,
            self.config.array_cols,
        )

    @property
    def arrays_per_copy(self) -> int:
        """Physical arrays in one weight copy (all slices and signs)."""
        rows, cols = self.grid
        return rows * cols * self.config.weight_mapping.cells_per_weight

    @property
    def total_arrays(self) -> int:
        """Arrays across all ``X`` duplicated copies."""
        return self.arrays_per_copy * self.duplication

    @property
    def cells(self) -> int:
        """Total programmed ReRAM cells (weight storage footprint)."""
        return (
            self.layer.weight_count
            * self.config.weight_mapping.cells_per_weight
            * self.duplication
        )

    # -- per-image work ----------------------------------------------------------
    @property
    def passes_per_image(self) -> int:
        """Sequential input waves to produce one image's outputs.

        ``ceil(output_vectors / X)`` — the quantity Fig. 4 trades
        against array cost (12544 for the naive scheme, 49 at X=256,
        1 at X=12544).
        """
        return ceil(self.layer.output_vectors / self.duplication)

    @property
    def subcycles_per_image(self) -> int:
        """Bit-serial sub-cycles per image: passes x activation bits."""
        return self.passes_per_image * self.config.activation_bits

    @property
    def array_activations_per_image(self) -> int:
        """Physical array reads per image (duplication-independent).

        Every output vector activates one copy's arrays once per input
        bit, regardless of how many copies exist — duplication buys
        time, not fewer operations.
        """
        return (
            self.layer.output_vectors
            * self.arrays_per_copy
            * self.config.activation_bits
        )


def naive_mapping(layer: LayerSpec, config: Optional[MappingConfig] = None) -> LayerMapping:
    """Fig. 4(a): single-copy mapping; a cycle per output vector."""
    return LayerMapping(layer, config or MappingConfig(), duplication=1)


def balanced_mapping(
    layer: LayerSpec, duplication: int, config: Optional[MappingConfig] = None
) -> LayerMapping:
    """Fig. 4(b): partitioned arrays with ``X = duplication`` copies."""
    return LayerMapping(layer, config or MappingConfig(), duplication=duplication)


def duplication_for_passes(layer: LayerSpec, passes: int) -> int:
    """Smallest ``X`` that finishes the layer within ``passes`` waves."""
    check_positive("passes", passes)
    return max(1, ceil(layer.output_vectors / passes))


def balance_duplication(
    network: NetworkSpec,
    array_budget: int,
    config: Optional[MappingConfig] = None,
) -> Dict[str, LayerMapping]:
    """Choose per-layer ``X`` under a total array budget.

    Finds the smallest uniform pass count ``P`` such that giving each
    layer ``X_l = ceil(vectors_l / P)`` copies fits in ``array_budget``
    physical arrays, then maps every matrix layer accordingly.  A
    uniform pass count is what the inter-layer pipeline wants: the
    pipeline cycle is the *slowest* layer's latency, so spending arrays
    anywhere except the bottleneck is wasted.

    Raises ``ValueError`` when even single copies exceed the budget.
    """
    config = config or MappingConfig()
    check_positive("array_budget", array_budget)
    layers = network.matrix_layers

    def arrays_needed(passes: int) -> int:
        total = 0
        for layer in layers:
            duplication = duplication_for_passes(layer, passes)
            total += LayerMapping(layer, config, duplication).total_arrays
        return total

    max_passes = max(layer.output_vectors for layer in layers)
    if arrays_needed(max_passes) > array_budget:
        raise ValueError(
            f"array budget {array_budget} cannot hold even one copy of "
            f"{network.name} ({arrays_needed(max_passes)} arrays needed)"
        )
    low, high = 1, max_passes
    while low < high:
        mid = (low + high) // 2
        if arrays_needed(mid) <= array_budget:
            high = mid
        else:
            low = mid + 1
    passes = low
    return {
        (layer.name or f"layer{index}"): LayerMapping(
            layer, config, duplication_for_passes(layer, passes)
        )
        for index, layer in enumerate(layers)
    }


def mapping_table(mappings: Sequence[LayerMapping]) -> str:
    """Human-readable report of a set of layer mappings."""
    lines = [
        f"{'layer':<16s}{'matrix':>12s}{'grid':>8s}{'X':>8s}"
        f"{'arrays':>10s}{'passes':>8s}"
    ]
    for mapping in mappings:
        layer = mapping.layer
        rows, cols = mapping.grid
        lines.append(
            f"{layer.name or layer.kind:<16s}"
            f"{f'{layer.matrix_rows}x{layer.matrix_cols}':>12s}"
            f"{f'{rows}x{cols}':>8s}"
            f"{mapping.duplication:>8d}"
            f"{mapping.total_arrays:>10d}"
            f"{mapping.passes_per_image:>8d}"
        )
    return "\n".join(lines)
