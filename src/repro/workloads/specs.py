"""Shape-level layer specifications for the evaluation workloads.

The cycle/energy models (GPU roofline, PipeLayer, ReGAN) consume layer
*shapes*, not live tensors.  :class:`LayerSpec` captures one layer's
dimensions and derives the quantities every model needs: MAC count,
weight count, input/output activation volumes, and the lowered
matrix-vector geometry (word lines x bit lines, output vectors per
image) that determines crossbar resources — the quantities Fig. 4
manipulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.utils.im2col import conv_output_size
from repro.utils.validation import check_choice, check_non_negative, check_positive

#: Layer kinds that own a weight matrix mapped to crossbars.
MATRIX_KINDS = ("conv", "fc", "fcnn")
#: All recognised kinds (non-matrix kinds ride along in peripherals).
ALL_KINDS = MATRIX_KINDS + ("pool",)


@dataclass(frozen=True)
class LayerSpec:
    """One layer's dimensions.

    Parameters
    ----------
    kind:
        ``"conv"`` (Eq. 1), ``"fc"`` (Eq. 2), ``"fcnn"``
        (fractional-strided conv, Fig. 7) or ``"pool"``.
    in_channels, in_height, in_width:
        Input data-cube size ``(C_l, X_l, Y_l)``.
    out_channels:
        ``C_{l+1}`` (for pool, equals ``in_channels``).
    kernel:
        Kernel extent ``K_x = K_y`` (pool window for pools; 1 for fc).
    stride, pad:
        Spatial stride / zero padding (fcnn: transposed-conv semantics).
    name:
        Label used in reports.
    """

    kind: str
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel: int = 1
    stride: int = 1
    pad: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        check_choice("kind", self.kind, ALL_KINDS)
        check_positive("in_channels", self.in_channels)
        check_positive("in_height", self.in_height)
        check_positive("in_width", self.in_width)
        check_positive("out_channels", self.out_channels)
        check_positive("kernel", self.kernel)
        check_positive("stride", self.stride)
        check_non_negative("pad", self.pad)

    # -- geometry ---------------------------------------------------------
    @property
    def out_height(self) -> int:
        if self.kind == "fc":
            return 1
        if self.kind == "fcnn":
            return (self.in_height - 1) * self.stride - 2 * self.pad + self.kernel
        return conv_output_size(self.in_height, self.kernel, self.stride, self.pad)

    @property
    def out_width(self) -> int:
        if self.kind == "fc":
            return 1
        if self.kind == "fcnn":
            return (self.in_width - 1) * self.stride - 2 * self.pad + self.kernel
        return conv_output_size(self.in_width, self.kernel, self.stride, self.pad)

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        return (self.out_channels, self.out_height, self.out_width)

    @property
    def input_size(self) -> int:
        """Input activation count per image."""
        return self.in_channels * self.in_height * self.in_width

    @property
    def output_size(self) -> int:
        """Output activation count per image."""
        return self.out_channels * self.out_height * self.out_width

    # -- crossbar geometry ----------------------------------------------------
    @property
    def matrix_rows(self) -> int:
        """Word lines of the lowered weight matrix (Fig. 4's 1152).

        For an FCNN layer the crossbar stores the *equivalent
        convolution* kernel (Fig. 7a), so the row count is that of the
        zero-inserted convolution: ``Cin * k * k``.
        """
        if self.kind == "pool":
            return 0
        if self.kind == "fc":
            return self.input_size
        return self.in_channels * self.kernel * self.kernel

    @property
    def matrix_cols(self) -> int:
        """Bit lines of the lowered weight matrix (Fig. 4's 256)."""
        if self.kind == "pool":
            return 0
        return self.out_channels

    @property
    def output_vectors(self) -> int:
        """Input vectors entering the array per image (Fig. 4's 12544).

        One per output pixel for conv/fcnn; exactly one for fc.
        """
        if self.kind == "pool":
            return 0
        if self.kind == "fc":
            return 1
        return self.out_height * self.out_width

    @property
    def weight_count(self) -> int:
        """Trainable weights (bias excluded — negligible and the paper
        neglects it "for express clarity")."""
        if self.kind == "pool":
            return 0
        return self.matrix_rows * self.matrix_cols

    # -- work -------------------------------------------------------------------
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations per image (forward)."""
        if self.kind == "pool":
            return 0
        return self.matrix_rows * self.matrix_cols * self.output_vectors

    @property
    def flops(self) -> int:
        """Forward floating-point operations per image (2 x MACs)."""
        if self.kind == "pool":
            # Comparisons / adds across the window.
            return self.output_size * self.kernel * self.kernel
        return 2 * self.macs

    @property
    def is_matrix_layer(self) -> bool:
        """Whether this layer maps onto crossbar arrays."""
        return self.kind in MATRIX_KINDS

    def scaled(self, factor: float) -> "LayerSpec":
        """Spec with channel counts scaled (for reduced-size studies)."""
        check_positive("factor", factor)
        return LayerSpec(
            kind=self.kind,
            in_channels=max(1, round(self.in_channels * factor)),
            in_height=self.in_height,
            in_width=self.in_width,
            out_channels=max(1, round(self.out_channels * factor)),
            kernel=self.kernel,
            stride=self.stride,
            pad=self.pad,
            name=self.name,
        )


def conv(
    in_channels: int,
    size: int,
    out_channels: int,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    name: str = "",
) -> LayerSpec:
    """Shorthand conv spec for square inputs."""
    return LayerSpec(
        kind="conv",
        in_channels=in_channels,
        in_height=size,
        in_width=size,
        out_channels=out_channels,
        kernel=kernel,
        stride=stride,
        pad=pad,
        name=name,
    )


def fc(in_features: int, out_features: int, name: str = "") -> LayerSpec:
    """Shorthand fully-connected spec."""
    return LayerSpec(
        kind="fc",
        in_channels=in_features,
        in_height=1,
        in_width=1,
        out_channels=out_features,
        name=name,
    )


def fcnn(
    in_channels: int,
    size: int,
    out_channels: int,
    kernel: int,
    stride: int = 2,
    pad: int = 1,
    name: str = "",
) -> LayerSpec:
    """Shorthand fractional-strided conv spec for square inputs."""
    return LayerSpec(
        kind="fcnn",
        in_channels=in_channels,
        in_height=size,
        in_width=size,
        out_channels=out_channels,
        kernel=kernel,
        stride=stride,
        pad=pad,
        name=name,
    )


def pool(channels: int, size: int, window: int, name: str = "") -> LayerSpec:
    """Shorthand pooling spec for square inputs."""
    return LayerSpec(
        kind="pool",
        in_channels=channels,
        in_height=size,
        in_width=size,
        out_channels=channels,
        kernel=window,
        stride=window,
        name=name,
    )


#: The worked example of Fig. 4: layer l is 114x114x128, kernels are
#: 3x3x128x256, layer l+1 is 112x112x256 (1152 word lines, 256 bit
#: lines, 12544 output vectors).
FIG4_EXAMPLE = conv(128, 114, 256, 3, name="fig4_example")
