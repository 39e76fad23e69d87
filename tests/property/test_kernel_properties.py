"""The float-path kernels match per-window Python loops bit for bit.

``im2col`` is a pure gather and ``col2im`` adds each image pixel's
contributions in ``(ky, kx)`` order; ``MaxPool2D`` reads every window's
first maximum and routes each gradient back to it, again adding in
``(ky, kx)`` order.  Each property compares ``tobytes()`` with a naive
loop that spells that order out.

Signed-zero ties are left out: on a ``-0.0``/``+0.0`` tie ``argmax``
keeps the first of the two, where a ``max`` reduction may return
either, so the bits of such a window's output are not pinned.  No model
feeds ``-0.0`` into a pool (``ReLU`` writes ``+0.0``), and the values
drawn here (normals, or small integers for ties) never hold ``-0.0``.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn.layers import MaxPool2D
from repro.utils.im2col import col2im, conv_output_size, im2col


def _images(rng, shape, ties, nhwc):
    """NCHW values; small integers when ``ties``; NHWC-strided if asked."""
    batch, channels, height, width = shape
    nhwc_shape = (batch, height, width, channels)
    if ties:
        values = rng.integers(-2, 3, size=nhwc_shape).astype(np.float64)
    else:
        values = rng.normal(size=nhwc_shape)
    images = values.transpose(0, 3, 1, 2)
    return images if nhwc else np.ascontiguousarray(images)


def _naive_im2col(images, kernel, stride, pad):
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    batch, _, height, width = images.shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)
    rows = []
    for n in range(batch):
        for oy in range(out_h):
            for ox in range(out_w):
                y, x = oy * stride, ox * stride
                rows.append(
                    padded[n, :, y : y + kernel, x : x + kernel].ravel()
                )
    return np.array(rows)


def _naive_col2im(cols, shape, kernel, stride, pad):
    batch, channels, height, width = shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    for ky in range(kernel):
        for kx in range(kernel):
            for n in range(batch):
                for c in range(channels):
                    for oy in range(out_h):
                        for ox in range(out_w):
                            row = (n * out_h + oy) * out_w + ox
                            col = (c * kernel + ky) * kernel + kx
                            padded[
                                n, c, oy * stride + ky, ox * stride + kx
                            ] += cols[row, col]
    return padded[:, :, pad : pad + height, pad : pad + width]


def _naive_argmax(images, window, stride):
    """``(n, c, oy, ox) -> (ky, kx)`` of each window's first maximum."""
    batch, channels, height, width = images.shape
    out_h = (height - window) // stride + 1
    out_w = (width - window) // stride + 1
    argmax = {}
    for n in range(batch):
        for c in range(channels):
            for oy in range(out_h):
                for ox in range(out_w):
                    best = None
                    for ky in range(window):
                        for kx in range(window):
                            value = images[
                                n, c, oy * stride + ky, ox * stride + kx
                            ]
                            if best is None or value > best[0]:
                                best = (value, ky, kx)
                    argmax[(n, c, oy, ox)] = best[1:]
    return argmax, (batch, channels, out_h, out_w)


def _naive_pool(images, window, stride, grad):
    argmax, out_shape = _naive_argmax(images, window, stride)
    out = np.empty(out_shape)
    grad_input = np.zeros(images.shape)
    for (n, c, oy, ox), (ky, kx) in argmax.items():
        out[n, c, oy, ox] = images[n, c, oy * stride + ky, ox * stride + kx]
    for ky in range(window):
        for kx in range(window):
            for (n, c, oy, ox), hit in argmax.items():
                if hit == (ky, kx):
                    grad_input[
                        n, c, oy * stride + ky, ox * stride + kx
                    ] += grad[n, c, oy, ox]
    return out, grad_input


_SIZE = st.integers(1, 6)


class TestIm2colMatchesLoops:
    @given(
        shape=st.tuples(_SIZE, _SIZE, _SIZE, _SIZE),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad=st.integers(0, 2),
        nhwc=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_im2col_and_col2im(self, shape, kernel, stride, pad, nhwc, seed):
        height, width = shape[2:]
        assume(height + 2 * pad >= kernel and width + 2 * pad >= kernel)
        rng = np.random.default_rng(seed)
        images = _images(rng, shape, False, nhwc)
        cols = im2col(images, kernel, kernel, stride, pad)
        expected = _naive_im2col(images, kernel, stride, pad)
        assert cols.shape == expected.shape
        assert cols.tobytes() == expected.tobytes()

        grads = rng.normal(size=cols.shape)
        back = col2im(grads, shape, kernel, kernel, stride, pad)
        expected = _naive_col2im(grads, shape, kernel, stride, pad)
        assert back.shape == expected.shape
        assert back.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestMaxPoolMatchesLoops:
    @given(
        shape=st.tuples(_SIZE, _SIZE, st.integers(3, 7), st.integers(3, 7)),
        window=st.integers(2, 3),
        stride=st.integers(1, 3),
        ties=st.booleans(),
        nhwc=st.booleans(),
        training=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_forward_and_backward(
        self, shape, window, stride, ties, nhwc, training, seed
    ):
        rng = np.random.default_rng(seed)
        images = _images(rng, shape, ties, nhwc)
        layer = MaxPool2D(window, stride=stride)
        out = layer.forward(images, training=training)
        grad = rng.normal(size=out.shape)
        expected_out, expected_grad = _naive_pool(
            images, window, stride, grad
        )
        assert out.shape == expected_out.shape
        assert out.tobytes() == expected_out.tobytes()
        grad_input = layer.backward(grad)
        assert grad_input.shape == images.shape
        assert grad_input.tobytes() == expected_grad.tobytes()
