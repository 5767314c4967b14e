"""Layer graphs, traversal, FLOP formulas, memory model, model zoo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs import (
    act_factor_for,
    backward_flops,
    fits_in_core,
    forward_flops,
    graph_param_count,
    layer_memory,
    max_in_core_batch,
    model_memory_total,
    optimizer_slots_for,
    param_count,
    projected_memory,
)
from repro.graph import (
    GraphValidationError,
    LayerGraph,
    LayerKind,
    LayerSpec,
    blocks_with_long_skips,
    chain,
    checkpoint_boundaries,
    contiguous_blocks,
    liveness_horizon,
    partition_is_legal,
)
from repro.costs.profiler import profile_graph
from repro.hardware import v100_sxm2_16gb
from repro.models import (
    MEGATRON_CONFIGS,
    TURING_NLG,
    REGISTRY,
    build,
    fig5_models,
    tiny_gpt,
    unet,
    vgg16,
)


class TestLayerGraph:
    def test_duplicate_name_rejected(self):
        g = LayerGraph("g")
        g.add_layer(LayerSpec("a", LayerKind.INPUT, (1,), (1,)))
        with pytest.raises(GraphValidationError):
            g.add_layer(LayerSpec("a", LayerKind.RELU, (1,), (1,)))

    def test_unknown_dependency_rejected(self):
        g = LayerGraph("g")
        with pytest.raises(GraphValidationError):
            g.add_layer(LayerSpec("b", LayerKind.RELU, (1,), (1,)),
                        inputs=["missing"])

    def test_chain_builder(self):
        g = chain("c", [
            LayerSpec("a", LayerKind.INPUT, (4,), (4,)),
            LayerSpec("b", LayerKind.RELU, (4,), (4,)),
            LayerSpec("c", LayerKind.SOFTMAX, (4,), (4,)),
        ])
        assert g.is_linear_chain()
        assert g.predecessors("c") == ["b"]
        assert g.successors("a") == ["b"]

    def test_disconnected_layer_rejected(self, small_cnn):
        g = LayerGraph("g")
        g.add_layer(LayerSpec("a", LayerKind.INPUT, (1,), (1,)))
        g.add_layer(LayerSpec("b", LayerKind.INPUT, (1,), (1,)))
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_skip_edges_resnet(self, small_cnn):
        assert not small_cnn.is_linear_chain()
        assert small_cnn.longest_skip() > 1

    def test_describe_contains_layers(self, small_cnn):
        text = small_cnn.describe()
        assert "conv" in text and "loss" in text

    def test_built_graphs_are_frozen_and_shared(self, small_cnn):
        assert build("unet") is build("unet")
        chained = chain("c", [LayerSpec("a", LayerKind.INPUT, (4,), (4,))])
        for g in (build("unet"), small_cnn, chained):
            last = g[len(g) - 1].name
            with pytest.raises(GraphValidationError, match="frozen"):
                g.add_layer(LayerSpec("extra", LayerKind.RELU, (1,), (1,)),
                            inputs=[last])

    def test_add_layer_on_open_graph_resets_memos(self, platform):
        device, _, transfer = platform
        g = LayerGraph("g")
        g.add_layer(LayerSpec("a", LayerKind.INPUT, (4,), (4,)))
        g.add_layer(LayerSpec("b", LayerKind.RELU, (4,), (4,)), inputs=["a"])
        g.validate()
        assert len(profile_graph(g, device, transfer, 2)) == 2
        assert b'"c"' not in g.canonical_bytes()
        g.add_layer(LayerSpec("c", LayerKind.RELU, (4,), (4,)))
        with pytest.raises(GraphValidationError, match="disconnected"):
            g.validate()
        with pytest.raises(GraphValidationError, match="disconnected"):
            profile_graph(g, device, transfer, 2)
        assert len(g.static_profile().params) == 3
        assert b'"c"' in g.canonical_bytes()

    #: SHA-256 of ``canonical_bytes()`` per registry model.  Plan-cache
    #: keys hash these bytes, so if they move, every cached plan misses.
    CANONICAL_SHA256 = {
        "resnet50": "1c17e3ebf6760606067cacfd4529c923"
                    "ebf0d029bb09ce4d89ea9638cd37b991",
        "vgg16": "4cd644c58976a402c6bc513ac33e143a"
                 "2147c2ea00231879a276f2f234a94671",
        "resnet200": "0260d25ee61890c01ed648442d8f6509"
                     "7c5bd028d9b21595e714a3bbf1e3c43c",
        "wrn28_10": "0dc71d829fbcad7a9526ac716e2cf99a"
                    "36570523e6b97e1e1f05e75873487ba1",
        "resnet1001": "87872f5dca28f693ab2580263ea0cd7e"
                      "996a70ae90811e241f5fa44c20a8c5f4",
        "unet": "2b665b1e85ddf1a4d98fb1390dc2d82d"
                "c5f1b9c0feb75148f99e5175cd14e61c",
    }

    @pytest.mark.parametrize("name", sorted(CANONICAL_SHA256))
    def test_canonical_bytes_pinned(self, name):
        import hashlib

        digest = hashlib.sha256(build(name).canonical_bytes()).hexdigest()
        assert digest == self.CANONICAL_SHA256[name]

    def test_edges_follow_insertion_order(self):
        """By source in layer order, then in the order each edge was
        added -- not sorted by name or by target."""
        g = LayerGraph("g")
        g.add_layer(LayerSpec("z", LayerKind.INPUT, (4,), (4,)))
        g.add_layer(LayerSpec("m", LayerKind.RELU, (4,), (4,)), inputs=["z"])
        g.add_layer(LayerSpec("a", LayerKind.RELU, (4,), (4,)),
                    inputs=["m", "z"])
        g.add_layer(LayerSpec("b", LayerKind.ADD, (4,), (4,)),
                    inputs=["a", "m", "z"])
        assert g.edges() == [("z", "m"), ("z", "a"), ("z", "b"),
                             ("m", "a"), ("m", "b"), ("a", "b")]
        assert g.predecessors("b") == ["z", "m", "a"]
        assert g.successors("z") == ["m", "a", "b"]
        assert g.skip_edges() == [("z", "a"), ("z", "b"), ("m", "b")]

    def test_duplicate_input_is_one_edge(self):
        g = LayerGraph("g")
        g.add_layer(LayerSpec("a", LayerKind.INPUT, (4,), (4,)))
        g.add_layer(LayerSpec("b", LayerKind.ADD, (4,), (4,)),
                    inputs=["a", "a"])
        g.freeze()
        assert g.edges() == [("a", "b")]
        assert g.predecessors("b") == ["a"]
        assert g.successors("a") == ["b"]
        assert g.canonical_dict()["edges"] == [["a", "b"]]


class TestTraversal:
    def test_liveness_horizon_skip(self, small_cnn):
        horizon = liveness_horizon(small_cnn)
        # the residual source is consumed by the add join later on
        relu = "relu"  # first relu feeds both conv_1 and add
        assert horizon[relu] > small_cnn.index_of(relu) + 1

    def test_checkpoint_boundaries_avoid_skips(self, small_cnn):
        bounds = checkpoint_boundaries(small_cnn)
        for b in bounds[:-1]:
            for u, v in small_cnn.edges():
                iu, iv = small_cnn.index_of(u), small_cnn.index_of(v)
                assert not (iu < b < iv) or iv == b + 1

    def test_partition_legality(self, small_cnn):
        n = len(small_cnn)
        ok, _ = partition_is_legal(small_cnn, [n])
        assert ok
        bad, reason = partition_is_legal(small_cnn, [n + 1])
        assert not bad

    def test_unet_long_skips_flagged(self, small_unet):
        n = len(small_unet)
        third = n // 3
        blocks = [third, 2 * third, n]
        flagged = blocks_with_long_skips(small_unet, blocks)
        assert flagged, "U-Net contracting blocks must be flagged"

    def test_contiguous_blocks(self):
        assert contiguous_blocks([2, 5]) == [(0, 2), (2, 5)]
        with pytest.raises(ValueError):
            contiguous_blocks([2, 2])


_SPEC_CASES = [
    (LayerSpec("c", LayerKind.CONV2D, (3, 8, 8), (4, 8, 8),
               {"kernel": 3, "stride": 1, "padding": 1, "in_channels": 3,
                "out_channels": 4}),
     2 * 4 * 8 * 8 * 9 * 3),                      # |Y| K^2 C_in MACs
    (LayerSpec("r", LayerKind.RELU, (16,), (16,)), 16),
    (LayerSpec("p", LayerKind.POOL_MAX, (4, 8, 8), (4, 4, 4),
               {"kernel": 2, "stride": 2, "padding": 0}), 4 * 4 * 4 * 4),
    (LayerSpec("s", LayerKind.SOFTMAX, (10,), (10,)), 20),
    (LayerSpec("l", LayerKind.LINEAR, (6,), (4,),
               {"in_features": 6, "out_features": 4}), 2 * 6 * 4),
]


class TestFlops:
    @pytest.mark.parametrize("spec,expected", _SPEC_CASES)
    def test_forward_formulas(self, spec, expected):
        assert forward_flops(spec) == pytest.approx(expected)

    def test_batch_scaling_linear(self):
        spec = _SPEC_CASES[0][0]
        assert forward_flops(spec, 8) == pytest.approx(
            8 * forward_flops(spec, 1))

    def test_backward_factor_conv(self):
        spec = _SPEC_CASES[0][0]
        assert backward_flops(spec) == pytest.approx(2 * forward_flops(spec))

    def test_param_counts(self):
        conv = _SPEC_CASES[0][0]
        assert param_count(conv) == 3 * 3 * 3 * 4 + 4
        lin = _SPEC_CASES[4][0]
        assert param_count(lin) == 6 * 4 + 4

    def test_attention_flops_positive_and_quadratic_in_seq(self):
        def attn(t):
            return LayerSpec("a", LayerKind.ATTENTION, (t, 64), (t, 64),
                             {"seq_len": t, "dim": 64, "heads": 4})
        f1, f2 = forward_flops(attn(32)), forward_flops(attn(64))
        assert f2 > 2 * f1  # superlinear: score matrix is O(T^2)

    def test_lstm_flops_includes_gates(self):
        spec = LayerSpec("l", LayerKind.LSTM, (10, 8), (10, 16),
                         {"steps": 10, "input_dim": 8, "hidden_dim": 16})
        assert forward_flops(spec) > 20 * spec.output_elems


class TestMemoryModel:
    def test_layer_memory_classes(self):
        spec = _SPEC_CASES[0][0]
        mem = layer_memory(spec, batch_size=2)
        assert mem.weights == param_count(spec) * 4
        assert mem.activations == spec.output_elems * 2 * 4
        assert mem.resident_backward > mem.resident_forward

    def test_act_factor_scales_activations_not_weights(self):
        spec = _SPEC_CASES[0][0]
        m1 = layer_memory(spec, 2, act_factor=1.0)
        m2 = layer_memory(spec, 2, act_factor=2.0)
        assert m2.activations == 2 * m1.activations
        assert m2.weights == m1.weights

    def test_memory_monotone_in_batch(self, small_cnn):
        totals = [model_memory_total(small_cnn, b) for b in (1, 2, 4, 8)]
        assert totals == sorted(totals)

    def test_max_in_core_batch_bisection(self, small_cnn):
        cap = model_memory_total(small_cnn, 16) + 1
        b = max_in_core_batch(small_cnn, cap)
        assert b >= 16
        assert fits_in_core(small_cnn, b, cap)
        assert not fits_in_core(small_cnn, b + 1, cap)

    def test_projected_memory(self):
        assert projected_memory(1000, 2, 400, 4) == 400 + 1200
        with pytest.raises(ValueError):
            projected_memory(1000, 0, 0, 1)

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_property_memory_monotonicity(self, b1, b2):
        spec = _SPEC_CASES[0][0]
        lo, hi = min(b1, b2), max(b1, b2)
        assert layer_memory(spec, lo).total <= layer_memory(spec, hi).total


class TestCostModelPrefixSums:
    def test_block_queries_match_direct_sums(self, small_cnn_cost):
        cm = small_cnn_cost
        n = len(cm)
        for (s, e) in [(0, n), (1, 3), (2, n - 1)]:
            assert cm.block_fw_time(s, e) == pytest.approx(
                sum(cm.fw_time(i) for i in range(s, e)))
            assert cm.block_weight_bytes(s, e) == \
                sum(cm.layer_mem(i).weights for i in range(s, e))

    def test_invalid_range_rejected(self, small_cnn_cost):
        with pytest.raises(ValueError):
            small_cnn_cost.block_fw_time(3, 3)

    def test_summary_renders(self, small_cnn_cost):
        assert "fw time" in small_cnn_cost.summary()


class TestModelZoo:
    @pytest.mark.parametrize("name,min_params", [
        ("resnet50", 25e6), ("resnet200", 64e6), ("wrn28_10", 36e6),
        ("resnet1001", 10e6), ("unet", 31e6),
    ])
    def test_table3_param_lower_bounds(self, name, min_params):
        g = REGISTRY[name].builder()
        assert graph_param_count(g) >= min_params

    def test_vgg16_canonical_params(self):
        # Table III lists >169M; the canonical VGG16 is 138M — documented
        # deviation (see EXPERIMENTS.md)
        assert graph_param_count(vgg16()) == pytest.approx(138.4e6, rel=0.01)

    @pytest.mark.parametrize("key,expected", [
        ("megatron-1.2b", 1.2e9), ("megatron-2.5b", 2.5e9),
        ("megatron-4.2b", 4.2e9), ("megatron-8.3b", 8.3e9),
    ])
    def test_megatron_param_closed_form(self, key, expected):
        cfg = MEGATRON_CONFIGS[key]
        assert cfg.analytic_params == pytest.approx(expected, rel=0.07)

    def test_turing_nlg_17b(self):
        assert TURING_NLG.analytic_params == pytest.approx(17e9, rel=0.05)

    @pytest.mark.slow
    @pytest.mark.parametrize("entry", fig5_models(), ids=lambda e: e.name)
    def test_fig5_incore_anchor(self, entry):
        """Only the first reported batch size fits in memory (§IV-B.1)."""
        g = entry.builder()
        dev = v100_sxm2_16gb()
        b = max_in_core_batch(g, dev.usable_memory,
                              act_factor=act_factor_for(g.name),
                              optimizer_slots=optimizer_slots_for(g.name))
        first, second = entry.fig5_batch_sizes[:2]
        assert first <= b < second, \
            f"{entry.name}: in-core limit {b} outside [{first}, {second})"

    def test_unet_has_long_skips(self):
        g = unet(image=64, base_width=8, depth=2)
        assert g.longest_skip() > 3

    def test_tiny_gpt_structure(self):
        g = tiny_gpt(hidden=32, heads=2, layers=2, seq_len=8, vocab=17)
        kinds = {s.kind for s in g}
        assert LayerKind.ATTENTION in kinds and LayerKind.EMBEDDING in kinds
