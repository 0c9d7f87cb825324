"""Tests for repro.nasbench.compile (spec -> op-level IR)."""

import numpy as np
import pytest

from repro.nasbench import ops as O
from repro.nasbench.compile import compile_cell_ops, compile_network
from repro.nasbench.known_cells import KNOWN_CELLS, googlenet_cell, resnet_cell
from repro.nasbench.model_spec import InvalidSpecError, ModelSpec
from repro.nasbench.ops import CONV3X3, INPUT, OUTPUT
from repro.nasbench.skeleton import CIFAR10_SKELETON, SkeletonConfig


class TestStructure:
    def test_ir_is_valid_dag(self, known_cell):
        ir = compile_network(known_cell, CIFAR10_SKELETON)
        ir.validate()

    def test_first_op_is_stem_last_is_dense(self, known_cell):
        ir = compile_network(known_cell, CIFAR10_SKELETON)
        assert ir.ops[0].kind == O.KIND_STEM
        assert ir.ops[-1].kind == O.KIND_DENSE
        assert ir.ops[-2].kind == O.KIND_GAP

    def test_resnet_op_inventory(self):
        ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
        counts = ir.count_kinds()
        # Per cell: proj into v1, two conv3x3, output skip proj + add.
        assert counts[O.KIND_CONV3X3] == 18
        assert counts[O.KIND_PROJ1X1] == 18
        assert counts[O.KIND_ADD] == 9
        assert counts[O.KIND_DOWNSAMPLE] == 2
        assert len(ir.ops) == 50

    def test_googlenet_has_concat_and_pool(self):
        ir = compile_network(googlenet_cell(), CIFAR10_SKELETON)
        counts = ir.count_kinds()
        assert counts[O.KIND_CONCAT] == 9
        assert counts[O.KIND_MAXPOOL3X3] == 9

    def test_invalid_spec_raises(self):
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        with pytest.raises(InvalidSpecError):
            compile_network(bad, CIFAR10_SKELETON)

    def test_degenerate_input_output_cell(self):
        m = np.zeros((2, 2), dtype=int)
        m[0, 1] = 1
        spec = ModelSpec(m, (INPUT, OUTPUT))
        ir = compile_network(spec, CIFAR10_SKELETON)
        # Each cell reduces to a single projection.
        assert ir.count_kinds()[O.KIND_PROJ1X1] == 9


class TestArithmetic:
    def test_resnet_macs_in_expected_range(self):
        ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
        assert 2.5e9 < ir.total_macs < 3.5e9

    def test_params_positive_and_conv_dominated(self, known_cell):
        ir = compile_network(known_cell, CIFAR10_SKELETON)
        conv_params = sum(op.params for op in ir.ops if op.kind in O.CONV_KINDS)
        assert ir.total_params > 0
        assert conv_params / ir.total_params > 0.9

    def test_stem_macs(self):
        ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
        stem = ir.ops[0]
        assert stem.macs == 9 * 3 * 128 * 32 * 32

    def test_downsample_halves_spatial(self):
        ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
        ds = [op for op in ir.ops if op.kind == O.KIND_DOWNSAMPLE]
        assert ds[0].height == 32 and ds[0].out_height == 16
        assert ds[1].height == 16 and ds[1].out_height == 8

    def test_classifier_shape(self):
        sk = SkeletonConfig(num_classes=100)
        ir = compile_network(resnet_cell(), sk)
        dense = ir.ops[-1]
        assert dense.in_channels == 512
        assert dense.out_channels == 100

    def test_channel_doubling_across_stacks(self):
        ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
        convs = [op for op in ir.ops if op.kind == O.KIND_CONV3X3]
        assert {op.out_channels for op in convs} == {128, 256, 512}

    def test_resnet_params_match_hand_count(self):
        def cell(cin, c):
            # Input projection and skip projection (1x1), two conv3x3;
            # every conv carries batch norm (2 per output channel).
            return 2 * (cin * c + 2 * c) + 2 * (9 * c * c + 2 * c)

        expected = (
            9 * 3 * 128 + 2 * 128
            + 3 * cell(128, 128)
            + cell(128, 256) + 2 * cell(256, 256)
            + cell(256, 512) + 2 * cell(512, 512)
            + 512 * 10 + 10
        )
        assert compile_network(resnet_cell(), CIFAR10_SKELETON).total_params == expected


#: Skeletons whose channel counts split unevenly between a cell's
#: branches, or whose stacks hold a single cell, beside the default.
SKELETONS = {
    "cifar10": CIFAR10_SKELETON,
    "tiny": SkeletonConfig(
        input_height=8, input_width=8, input_channels=2, stem_channels=4,
        num_stacks=2, cells_per_stack=1, num_classes=3,
    ),
    "odd": SkeletonConfig(
        input_height=16, input_width=16, stem_channels=10,
        num_stacks=3, cells_per_stack=2, num_classes=7,
    ),
}


class TestShapes:
    @pytest.mark.parametrize("skeleton", sorted(SKELETONS))
    def test_every_op_reads_what_its_deps_produce(self, known_cell, skeleton):
        sk = SKELETONS[skeleton]
        ir = compile_network(known_cell, sk)
        stem, gap, dense = ir.ops[0], ir.ops[-2], ir.ops[-1]
        assert (stem.in_channels, stem.height, stem.width) == (
            sk.input_channels, sk.input_height, sk.input_width,
        )
        assert dense.deps == (gap.index,)
        assert (dense.in_channels, dense.out_channels) == (
            gap.out_channels, sk.num_classes,
        )
        for op in ir.ops[1:-1]:
            deps = [ir.ops[d] for d in op.deps]
            assert deps, op.name
            for dep in deps:
                assert (dep.out_height, dep.out_width) == (op.height, op.width), op.name
            if op.kind == O.KIND_CONCAT:
                assert sum(dep.out_channels for dep in deps) == op.out_channels, op.name
            elif op.kind in (O.KIND_PROJ1X1, O.KIND_DOWNSAMPLE, O.KIND_GAP):
                # The cell input and the stack boundary are never truncated.
                assert deps[0].out_channels == op.in_channels, op.name
            else:
                # Interior edges may only truncate channels, never grow them.
                assert all(dep.out_channels >= op.in_channels for dep in deps), op.name


class TestSignaturesAndBytes:
    def test_signature_fields(self):
        ir = compile_network(resnet_cell(), CIFAR10_SKELETON)
        op = ir.ops[0]
        assert op.signature() == (O.KIND_STEM, 3, 128, 32, 32, 1)

    def test_unique_signatures_bounded(self, known_cell):
        ir = compile_network(known_cell, CIFAR10_SKELETON)
        unique = ir.unique_signatures()
        assert 0 < len(unique) <= len(ir.ops)

    def test_weight_bytes_zero_for_pool(self):
        ir = compile_network(googlenet_cell(), CIFAR10_SKELETON)
        pools = [op for op in ir.ops if op.kind == O.KIND_MAXPOOL3X3]
        assert all(op.weight_bytes == 0 for op in pools)
        assert all(op.macs == 0 for op in pools)
        assert all(op.work > 0 for op in pools)

    def test_caching_returns_same_object(self):
        a = compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)
        b = compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)
        assert a is b
