"""Lower a :class:`ModelSpec` + skeleton into a concrete op-level IR.

The compiled :class:`NetworkIR` is the single source of truth consumed
by *both* halves of the codesign system:

* the accelerator latency model schedules ``NetworkIR.ops`` onto
  engines (see :mod:`repro.accelerator.scheduler`);
* the numpy NN builder instantiates the same ops as runnable layers
  (see :mod:`repro.nn.builder`).

Lowering follows NASBench-101's ``build_module`` exactly:

* edges leaving the cell input become 1x1 *projections* to the target
  vertex's channel count (conv1x1 + BN + ReLU);
* interior edges are channel *truncations* (free — a slice);
* a vertex with fan-in > 1 sums its inputs (an ``add`` glue op);
* the output vertex concatenates all interior predecessors, and a
  direct input->output edge is projected then added on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.nasbench import ops as O
from repro.nasbench.model_spec import InvalidSpecError, ModelSpec
from repro.nasbench.skeleton import SkeletonConfig, compute_vertex_channels

__all__ = ["CompiledOp", "NetworkIR", "compile_network", "compile_cell_ops"]


@dataclass(frozen=True)
class CompiledOp:
    """One concrete operation of the lowered network.

    ``deps`` are indices of ops whose outputs this op consumes; the
    scheduler uses them to exploit branch parallelism.  ``macs`` counts
    multiply-accumulates (0 for pooling/glue); ``work`` counts simple
    element ops for non-MAC kinds so that CPU/pool latency modelling
    has a size measure.
    """

    index: int
    kind: str
    name: str
    in_channels: int
    out_channels: int
    height: int
    width: int
    deps: tuple[int, ...]
    stride: int = 1

    @property
    def kernel(self) -> int:
        return O.kernel_size(self.kind)

    @property
    def out_height(self) -> int:
        return self.height // self.stride

    @property
    def out_width(self) -> int:
        return self.width // self.stride

    @property
    def macs(self) -> int:
        """Multiply-accumulate count (convolution-like ops only)."""
        if self.kind in O.CONV_KINDS:
            k = self.kernel
            return k * k * self.in_channels * self.out_channels * self.out_height * self.out_width
        if self.kind == O.KIND_DENSE:
            return self.in_channels * self.out_channels
        return 0

    @property
    def work(self) -> int:
        """Element-operation count for non-MAC ops (pool/add/concat)."""
        if self.kind in O.POOL_KINDS:
            k = self.kernel
            return k * k * self.out_channels * self.out_height * self.out_width
        if self.kind == O.KIND_ADD:
            return self.in_channels * self.height * self.width
        if self.kind == O.KIND_CONCAT:
            return self.out_channels * self.height * self.width
        if self.kind == O.KIND_GAP:
            return self.in_channels * self.height * self.width
        return 0

    @property
    def params(self) -> int:
        """Learnable parameter count (conv weights + BN, or dense)."""
        if self.kind in O.CONV_KINDS:
            k = self.kernel
            weights = k * k * self.in_channels * self.out_channels
            bn = 2 * self.out_channels
            return weights + bn
        if self.kind == O.KIND_DENSE:
            return self.in_channels * self.out_channels + self.out_channels
        return 0

    @property
    def input_bytes(self) -> int:
        """Activation bytes read (8-bit activations, CHaiDNN-style)."""
        return self.in_channels * self.height * self.width

    @property
    def output_bytes(self) -> int:
        """Activation bytes written."""
        return self.out_channels * self.out_height * self.out_width

    @property
    def weight_bytes(self) -> int:
        """Weight bytes read (8-bit weights)."""
        if self.kind in O.CONV_KINDS:
            k = self.kernel
            return k * k * self.in_channels * self.out_channels
        if self.kind == O.KIND_DENSE:
            return self.in_channels * self.out_channels
        return 0

    def signature(self) -> tuple:
        """LUT key: everything that determines latency on given HW."""
        return (self.kind, self.in_channels, self.out_channels,
                self.height, self.width, self.stride)


@dataclass
class NetworkIR:
    """A compiled network: a DAG of :class:`CompiledOp`."""

    ops: list[CompiledOp] = field(default_factory=list)

    def add(self, kind: str, name: str, in_ch: int, out_ch: int,
            height: int, width: int, deps: tuple[int, ...], stride: int = 1) -> int:
        index = len(self.ops)
        self.ops.append(CompiledOp(index, kind, name, in_ch, out_ch,
                                   height, width, deps, stride))
        return index

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.ops)

    @property
    def total_params(self) -> int:
        return sum(op.params for op in self.ops)

    def count_kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def unique_signatures(self) -> list[tuple]:
        """Distinct latency-LUT signatures in this network."""
        seen: dict[tuple, None] = {}
        for op in self.ops:
            seen.setdefault(op.signature(), None)
        return list(seen)

    def validate(self) -> None:
        """Check the IR is a well-formed DAG (deps precede users)."""
        for op in self.ops:
            if op.index >= len(self.ops) or self.ops[op.index] is not op:
                raise AssertionError("op index out of sync")
            for dep in op.deps:
                if dep >= op.index:
                    raise AssertionError(f"op {op.index} depends on later op {dep}")


def _emit_cell(
    ir: NetworkIR,
    spec: ModelSpec,
    cell_name: str,
    in_channels: int,
    out_channels: int,
    height: int,
    width: int,
    input_op: int,
) -> int:
    """Emit one cell; returns the index of the op producing its output."""
    matrix = spec.matrix
    n = matrix.shape[0]
    channels = compute_vertex_channels(in_channels, out_channels, matrix)

    # Op index producing each vertex's output tensor.
    produced: list[int | None] = [None] * n
    produced[0] = input_op

    kind_of_op = {
        O.CONV3X3: O.KIND_CONV3X3,
        O.CONV1X1: O.KIND_CONV1X1,
        O.MAXPOOL3X3: O.KIND_MAXPOOL3X3,
    }

    for v in range(1, n - 1):
        fan_in: list[int] = []
        for src in range(1, v):
            if matrix[src, v]:
                # Interior edge: channel truncation, no op emitted.
                fan_in.append(produced[src])  # type: ignore[arg-type]
        if matrix[0, v]:
            proj = ir.add(O.KIND_PROJ1X1, f"{cell_name}/v{v}/proj",
                          in_channels, channels[v], height, width, (input_op,))
            fan_in.append(proj)
        if len(fan_in) > 1:
            vertex_in = ir.add(O.KIND_ADD, f"{cell_name}/v{v}/add",
                               channels[v], channels[v], height, width, tuple(fan_in))
        else:
            vertex_in = fan_in[0]
        produced[v] = ir.add(kind_of_op[spec.ops[v]], f"{cell_name}/v{v}/{spec.ops[v]}",
                             channels[v], channels[v], height, width, (vertex_in,))

    concat_in = [produced[v] for v in range(1, n - 1) if matrix[v, n - 1]]
    if not concat_in:
        # Degenerate cell: input wired straight to output.
        return ir.add(O.KIND_PROJ1X1, f"{cell_name}/out/proj",
                      in_channels, out_channels, height, width, (input_op,))
    if len(concat_in) == 1:
        output = concat_in[0]  # type: ignore[assignment]
    else:
        output = ir.add(O.KIND_CONCAT, f"{cell_name}/out/concat",
                        out_channels, out_channels, height, width,
                        tuple(concat_in))  # type: ignore[arg-type]
    if matrix[0, n - 1]:
        proj = ir.add(O.KIND_PROJ1X1, f"{cell_name}/out/proj",
                      in_channels, out_channels, height, width, (input_op,))
        output = ir.add(O.KIND_ADD, f"{cell_name}/out/add",
                        out_channels, out_channels, height, width, (output, proj))
    return output


def compile_network(spec: ModelSpec, skeleton: SkeletonConfig) -> NetworkIR:
    """Compile the full skeleton around ``spec`` into a :class:`NetworkIR`."""
    if not spec.valid:
        raise InvalidSpecError(f"cannot compile invalid spec: {spec.invalid_reason}")

    ir = NetworkIR()
    height, width = skeleton.input_height, skeleton.input_width
    current = ir.add(O.KIND_STEM, "stem", skeleton.input_channels,
                     skeleton.stem_channels, height, width, ())
    channels = skeleton.stem_channels

    for stack in range(skeleton.num_stacks):
        if stack > 0:
            current = ir.add(O.KIND_DOWNSAMPLE, f"stack{stack}/downsample",
                             channels, channels, height, width, (current,), stride=2)
            height //= 2
            width //= 2
            channels *= 2
        for cell_idx in range(skeleton.cells_per_stack):
            in_ch = channels if (stack == 0 or cell_idx > 0) else channels // 2
            current = _emit_cell(ir, spec, f"stack{stack}/cell{cell_idx}",
                                 in_ch, channels, height, width, current)

    pooled = ir.add(O.KIND_GAP, "global-avg-pool", channels, channels,
                    height, width, (current,))
    ir.add(O.KIND_DENSE, "classifier", channels, skeleton.num_classes,
           1, 1, (pooled,))
    ir.validate()
    return ir


@lru_cache(maxsize=4096)
def _compile_cached(spec: ModelSpec, skeleton: SkeletonConfig) -> NetworkIR:
    # ModelSpec hashes and compares by its pruned cell, the only part of
    # it compile_network reads, so equal keys compile to equal IRs.
    return compile_network(spec, skeleton)


def compile_cell_ops(spec: ModelSpec, skeleton: SkeletonConfig) -> NetworkIR:
    """Cached variant of :func:`compile_network` keyed by pruned spec."""
    if not spec.valid:
        raise InvalidSpecError(f"cannot compile invalid spec: {spec.invalid_reason}")
    return _compile_cached(spec, skeleton)
