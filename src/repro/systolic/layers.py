"""CNN layer descriptors.

A :class:`ConvLayer` is the unit the systolic simulator consumes.  All
CNN kinds the paper's six models need reduce to it:

- ``conv``: standard convolution;
- ``dwconv``: depthwise convolution (MobileNet) — each input channel is
  its own single-filter group, which maps terribly onto a weight-
  stationary array and is exactly why MobileNet behaves differently in
  Figs 18-21;
- ``fc``: fully connected, a 1x1 convolution over a 1x1 "image";
- ``pool``: pooling, which costs no MACs on the matrix unit but does
  stream data.

Word size is one byte throughout (the accelerator computes on 8-bit
quantities, as SuperNPU assumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigError

#: Bytes per CNN data word.
WORD_BYTES = 1

VALID_KINDS = ("conv", "dwconv", "fc", "pool")


@dataclass(frozen=True)
class ConvLayer:
    """One layer of a CNN.

    Attributes:
        name: layer name, unique within a network.
        in_h, in_w, in_c: input feature-map height / width / channels.
        out_c: output channels (for dwconv this must equal in_c).
        kernel_h, kernel_w: filter spatial size.
        stride: spatial stride (same both dims).
        padding: spatial zero padding (same both dims).
        kind: one of ``conv``, ``dwconv``, ``fc``, ``pool``.
    """

    name: str
    in_h: int
    in_w: int
    in_c: int
    out_c: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    kind: str = "conv"

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"{self.name}: unknown layer kind {self.kind}")
        for attr in ("in_h", "in_w", "in_c", "out_c", "kernel_h",
                     "kernel_w", "stride"):
            if getattr(self, attr) < 1:
                raise ConfigError(f"{self.name}: {attr} must be >= 1")
        if self.padding < 0:
            raise ConfigError(f"{self.name}: padding must be >= 0")
        if self.kind == "dwconv" and self.out_c != self.in_c:
            raise ConfigError(
                f"{self.name}: depthwise layers need out_c == in_c"
            )
        if self.out_h < 1 or self.out_w < 1:
            raise ConfigError(f"{self.name}: output shrinks to nothing")

    def __hash__(self) -> int:
        # Same field tuple the generated dataclass hash would use, but
        # computed once per instance — layer values key the serving
        # memo cache's structural fallback.  Safe: the dataclass is
        # frozen.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.in_h, self.in_w, self.in_c,
                      self.out_c, self.kernel_h, self.kernel_w,
                      self.stride, self.padding, self.kind))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # Geometry, computed once per instance: the dataclass is frozen, and
    # its ==, hash and repr read only the fields
    # ------------------------------------------------------------------
    @cached_property
    def out_h(self) -> int:
        """Output feature-map height."""
        return (self.in_h + 2 * self.padding - self.kernel_h) // self.stride + 1

    @cached_property
    def out_w(self) -> int:
        """Output feature-map width."""
        return (self.in_w + 2 * self.padding - self.kernel_w) // self.stride + 1

    @cached_property
    def out_pixels(self) -> int:
        """Output pixels per image (H' * W')."""
        return self.out_h * self.out_w

    @cached_property
    def kernel_volume(self) -> int:
        """Weights contributing to one output element.

        For conv: R*S*C; for depthwise: R*S (single channel); for fc:
        the full input feature count; pooling has none.
        """
        if self.kind == "conv":
            return self.kernel_h * self.kernel_w * self.in_c
        if self.kind == "dwconv":
            return self.kernel_h * self.kernel_w
        if self.kind == "fc":
            return self.in_h * self.in_w * self.in_c
        return 0

    @cached_property
    def groups(self) -> int:
        """Independent filter groups (in_c for depthwise, else 1)."""
        return self.in_c if self.kind == "dwconv" else 1

    # ------------------------------------------------------------------
    # Work and footprints (per image)
    # ------------------------------------------------------------------
    @cached_property
    def macs(self) -> int:
        """Multiply-accumulate operations per image."""
        if self.kind == "pool":
            return 0
        if self.kind == "fc":
            return self.kernel_volume * self.out_c
        if self.kind == "dwconv":
            return self.out_pixels * self.kernel_volume * self.in_c
        return self.out_pixels * self.kernel_volume * self.out_c

    @cached_property
    def weight_bytes(self) -> int:
        """Weight footprint (bytes)."""
        if self.kind == "pool":
            return 0
        if self.kind == "dwconv":
            return self.kernel_h * self.kernel_w * self.in_c * WORD_BYTES
        return self.kernel_volume * self.out_c * WORD_BYTES

    @cached_property
    def input_bytes(self) -> int:
        """Input activation footprint per image (bytes)."""
        return self.in_h * self.in_w * self.in_c * WORD_BYTES

    @cached_property
    def output_bytes(self) -> int:
        """Output activation footprint per image (bytes)."""
        if self.kind == "fc":
            return self.out_c * WORD_BYTES
        return self.out_pixels * self.out_c * WORD_BYTES


@dataclass(frozen=True)
class Network:
    """An ordered CNN model.

    Attributes:
        name: model name.
        layers: layers in execution order.
    """

    name: str
    layers: tuple[ConvLayer, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError(f"network {self.name} has no layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError(f"network {self.name} has duplicate layer names")

    def __hash__(self) -> int:
        # One hash per instance (the layers tuple re-hashes every
        # ConvLayer otherwise); see ConvLayer.__hash__.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.layers))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def total_macs(self) -> int:
        """MACs per image across all layers."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        """Total model weights (bytes)."""
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def max_activation_bytes(self) -> int:
        """Largest single-layer activation working set per image (bytes).

        Bounds how many images of intermediate state fit in an SPM; the
        batch-capacity analysis of Sec 6.2 hinges on this.
        """
        return max(layer.input_bytes + layer.output_bytes
                   for layer in self.layers)

    def compute_layers(self) -> tuple[ConvLayer, ...]:
        """Layers that occupy the matrix unit (excludes pooling)."""
        return tuple(l for l in self.layers if l.kind != "pool")
