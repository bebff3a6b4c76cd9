import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypermoe.conv import (
    ConvPipeline,
    ConvPipelineSpec,
    Stage,
    compress_expert_weights,
    conv_stage_forward,
    default_pipeline_spec,
    shape_chain,
    stack_expert_weights,
    stage_output_shape,
)
from hypermoe.errors import ConfigurationError, DimensionError
from hypermoe.tensor import Rng, Tensor


# The reference pipeline for 2x3072x768 stacked expert weights -> 128 dims.
REFERENCE_SPEC = ConvPipelineSpec(
    stages=[
        Stage.depthwise(5, 5, 5, 5),
        Stage.pointwise(2, 32),
        Stage.avg_pool(16, 6),
        Stage.depthwise(3, 3, 3, 3),
        Stage.pointwise(32, 128),
        Stage.avg_pool(8, 8),
    ],
    out_dim=128,
)


class TestShapeChain:
    def test_reference_chain_rows(self):
        shapes = shape_chain(REFERENCE_SPEC, (2, 3072, 768))
        assert shapes == [
            (2, 3072, 768),
            (2, 614, 153),
            (32, 614, 153),
            (32, 38, 25),
            (32, 12, 8),
            (128, 12, 8),
            (128, 1, 1),
        ]

    def test_depthwise_5x5_stride5(self):
        stage = Stage.depthwise(5, 5, 5, 5)
        assert stage_output_shape(stage, (2, 3072, 768)) == (2, 614, 153)

    def test_avg_pool_16x6(self):
        stage = Stage.avg_pool(16, 6)
        assert stage_output_shape(stage, (32, 614, 153)) == (32, 38, 25)

    def test_pointwise_preserves_extent(self):
        stage = Stage.pointwise(2, 32)
        assert stage_output_shape(stage, (2, 614, 153)) == (32, 614, 153)

    def test_pointwise_channel_mismatch(self):
        with pytest.raises(DimensionError):
            stage_output_shape(Stage.pointwise(3, 8), (2, 10, 10))

    def test_kernel_larger_than_input(self):
        with pytest.raises(DimensionError):
            stage_output_shape(Stage.depthwise(4, 4, 1, 1), (1, 3, 8))

    def test_chain_rejects_non_unit_final_extent(self):
        spec = ConvPipelineSpec([Stage.avg_pool(2, 2)], out_dim=1)
        with pytest.raises(ConfigurationError):
            shape_chain(spec, (1, 8, 8))

    def test_chain_rejects_out_dim_mismatch(self):
        spec = ConvPipelineSpec([Stage.avg_pool(4, 4)], out_dim=2)
        with pytest.raises(ConfigurationError):
            shape_chain(spec, (1, 4, 4))

    def test_default_desk_scale_spec(self):
        spec = default_pipeline_spec(d_ff=16, h=8, out_dim=6)
        shapes = shape_chain(spec, (2, 16, 8))
        assert shapes[-1] == (6, 1, 1)


def naive_depthwise(x, kernel, stride):
    """Loop-over-everything oracle for an unpadded depthwise convolution."""
    c, h, w = x.shape
    kh, kw = kernel.shape[1:]
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.zeros((c, oh, ow))
    for ci in range(c):
        for i in range(oh):
            for j in range(ow):
                patch = x[ci, i * sh : i * sh + kh, j * sw : j * sw + kw]
                out[ci, i, j] = np.sum(patch * kernel[ci])
    return out


@st.composite
def window_cases(draw):
    """Channels, extent, kernel and stride of one unpadded window stage."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(kh, kh + 7)), draw(st.integers(kw, kw + 7))
    return draw(st.integers(1, 3)), (h, w), (kh, kw), (draw(st.integers(1, 4)), draw(st.integers(1, 4)))


class TestStageForward:
    def test_depthwise_matches_naive_oracle(self):
        rng = Rng(30)
        x = rng.gaussian(3, 7, 9)
        kernel = rng.gaussian(3, 2, 3)
        stage = Stage.depthwise(2, 3, 2, 3)
        out = conv_stage_forward(x, stage, kernel)
        assert np.max(np.abs(out - naive_depthwise(x, kernel, (2, 3)))) < 1e-12

    @given(case=window_cases(), seed=st.integers(0, 2**16))
    def test_window_stages_match_naive_oracle(self, case, seed):
        c, (h, w), (kh, kw), (sh, sw) = case
        rng = Rng(seed)
        x = rng.gaussian(c, h, w)
        kernel = rng.gaussian(c, kh, kw)
        out = conv_stage_forward(x, Stage.depthwise(kh, kw, sh, sw), kernel)
        assert np.max(np.abs(out - naive_depthwise(x, kernel, (sh, sw)))) < 1e-12
        pooled = conv_stage_forward(x, Stage.avg_pool(kh, kw, sh, sw))
        uniform = np.full((c, kh, kw), 1.0 / (kh * kw))
        assert np.max(np.abs(pooled - naive_depthwise(x, uniform, (sh, sw)))) < 1e-12

    def test_pointwise_constant_field(self):
        # a spatially constant input stays constant; each output channel is
        # the weight-column dot the channel values
        w = np.array([[1.0, -2.0, 0.5], [3.0, 1.0, 0.0]])
        x = np.stack([np.full((4, 5), 2.0), np.full((4, 5), -1.0)])
        out = conv_stage_forward(x, Stage.pointwise(2, 3), w)
        expected = np.array([2.0, -1.0]) @ w
        for ch in range(3):
            assert np.allclose(out[ch], expected[ch])

    def test_avg_pool_constant_invariant(self):
        x = np.full((2, 6, 6), 3.5)
        out = conv_stage_forward(x, Stage.avg_pool(3, 2))
        assert out.shape == (2, 2, 3)
        assert np.allclose(out, 3.5)

    def test_avg_pool_hand_case(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        out = conv_stage_forward(x, Stage.avg_pool(2, 2))
        assert out.tolist() == [[[1.5]]]

    def test_depthwise_identity_kernel(self):
        rng = Rng(31)
        x = rng.gaussian(2, 5, 5)
        out = conv_stage_forward(x, Stage.depthwise(1, 1, 1, 1), np.ones((2, 1, 1)))
        assert np.array_equal(out, x)


def small_bank(h=6, d_ff=9, n=3, seed=40):
    rng = Rng(seed)
    return (
        Tensor(np.stack([rng.gaussian(h, d_ff) for _ in range(n)]), requires_grad=True),
        Tensor(np.stack([rng.gaussian(d_ff, h) for _ in range(n)]), requires_grad=True),
    )


class TestCompression:
    def test_stack_layout(self):
        bank = small_bank(n=1)
        img = stack_expert_weights(bank[0].data[0], bank[1].data[0])
        assert img.shape == (2, 9, 6)
        assert np.array_equal(img[0], bank[0].data[0].T)
        assert np.array_equal(img[1], bank[1].data[0])

    def test_output_shape_is_n_by_out_dim(self):
        bank = small_bank()
        spec = default_pipeline_spec(9, 6, out_dim=5)
        pipe = ConvPipeline(spec, (2, 9, 6), Rng(41))
        emb = compress_expert_weights(bank, pipe)
        assert emb.shape == (3, 5)

    def test_batch_matches_per_expert_forward(self):
        bank = small_bank()
        spec = default_pipeline_spec(9, 6, out_dim=5)
        pipe = ConvPipeline(spec, (2, 9, 6), Rng(45))
        emb = compress_expert_weights(bank, pipe)
        for e, (w1, w2) in enumerate(zip(bank[0].data, bank[1].data)):
            row = pipe.forward(stack_expert_weights(w1, w2)).reshape(-1)
            assert np.max(np.abs(emb.data[e] - row)) < 1e-12
        assert not emb.requires_grad

    def test_zero_weights_zero_embedding(self):
        bank = small_bank()
        zero_bank = (
            Tensor(np.concatenate([np.zeros((1, 6, 9)), bank[0].data[1:]])),
            Tensor(np.concatenate([np.zeros((1, 9, 6)), bank[1].data[1:]])),
        )
        spec = default_pipeline_spec(9, 6, out_dim=5)
        pipe = ConvPipeline(spec, (2, 9, 6), Rng(42))
        emb = compress_expert_weights(zero_bank, pipe)
        assert np.all(emb.data[0] == 0.0)
        assert np.any(emb.data[1] != 0.0)

    def test_expert_permutation_equivariance(self):
        bank = small_bank()
        spec = default_pipeline_spec(9, 6, out_dim=4)
        pipe = ConvPipeline(spec, (2, 9, 6), Rng(43))
        emb = compress_expert_weights(bank, pipe)
        perm = [2, 0, 1]
        permuted = (Tensor(bank[0].data[perm]), Tensor(bank[1].data[perm]))
        emb_p = compress_expert_weights(permuted, pipe)
        assert np.array_equal(emb_p.data, emb.data[perm])

    def test_pipeline_deterministic_for_seed(self):
        bank = small_bank()
        spec = default_pipeline_spec(9, 6, out_dim=4)
        a = compress_expert_weights(bank, ConvPipeline(spec, (2, 9, 6), Rng(7)))
        b = compress_expert_weights(bank, ConvPipeline(spec, (2, 9, 6), Rng(7)))
        assert np.array_equal(a.data, b.data)

    def test_pipeline_rejects_wrong_input_shape(self):
        spec = default_pipeline_spec(9, 6, out_dim=4)
        pipe = ConvPipeline(spec, (2, 9, 6), Rng(44))
        with pytest.raises(DimensionError):
            pipe.forward(np.zeros((2, 8, 6)))
