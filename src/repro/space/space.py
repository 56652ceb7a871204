"""The Table I search space around MobileNetV2.

Encodes every degree of freedom of the paper's search space, its seed
values (bold in Table I), exact cardinality computation, uniform random
sampling, and the mutation/crossover operators used both by the BO
acquisition optimizer and the evolutionary baselines.

Cardinalities (computed exactly by :meth:`SearchSpace.num_architectures`
etc.): 3.96e19 architectures x 1.19e16 policies = 4.72e35 joint candidates.
The paper's abstract-level figure of 4.73e39 for the joint space is
inconsistent with its own factor counts and is treated as a typo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..quant.policy import DEFAULT_BITWIDTH_CHOICES, QuantizationPolicy
from .genome import ArchGenome, BlockGenes, MixedPrecisionGenome

#: MobileNetV2 base output channels of the seven inverted bottlenecks.
MOBILENETV2_BASE_WIDTHS = (16, 24, 32, 64, 96, 160, 320)

#: Width-multiplier menus per dataset (Section III).
CIFAR10_WIDTH_CHOICES = (0.01, 0.05, 0.1, 0.2, 0.3)
CIFAR100_WIDTH_CHOICES = (0.25, 0.50, 0.75, 1.00, 1.30)

KERNEL_CHOICES = (2, 3, 4, 5, 6, 7)
EXPANSION_CHOICES = (1, 2, 3, 4, 5, 6)
REPETITION_CHOICES = (0, 1, 2, 3, 4, 5)
CONV2_FILTER_CHOICES = (128, 256, 512, 1024, 1280)

#: Bottlenecks whose first repetition performs the resolution reduction
#: ("after bottlenecks 4 and 6", Section III / Elsken et al.).
STRIDED_BLOCKS = (5, 7)


@dataclass(frozen=True)
class BlockSpace:
    """Choice menus for one inverted bottleneck."""

    name: str
    kernel_choices: Tuple[int, ...]
    width_choices: Tuple[float, ...]
    expansion_choices: Tuple[int, ...]
    repetition_choices: Tuple[int, ...]
    seed: BlockGenes = field(compare=False)

    def num_choices(self) -> int:
        return (len(self.kernel_choices) * len(self.width_choices)
                * len(self.expansion_choices) * len(self.repetition_choices))

    def sample(self, rng: np.random.Generator) -> BlockGenes:
        return BlockGenes(
            kernel=int(rng.choice(self.kernel_choices)),
            width_multiplier=float(rng.choice(self.width_choices)),
            expansion=int(rng.choice(self.expansion_choices)),
            repetitions=int(rng.choice(self.repetition_choices)))

    def validate(self, genes: BlockGenes) -> None:
        if genes.kernel not in self.kernel_choices:
            raise ValueError(f"{self.name}: kernel {genes.kernel} invalid")
        if genes.width_multiplier not in self.width_choices:
            raise ValueError(
                f"{self.name}: width {genes.width_multiplier} invalid")
        if genes.expansion not in self.expansion_choices:
            raise ValueError(
                f"{self.name}: expansion {genes.expansion} invalid")
        if genes.repetitions not in self.repetition_choices:
            raise ValueError(
                f"{self.name}: repetitions {genes.repetitions} invalid")


def _block_spaces(width_choices: Sequence[float]) -> Tuple[BlockSpace, ...]:
    """The seven per-bottleneck menus of Table I."""
    widths = tuple(width_choices)
    seed_width = widths[2]  # the bold (seed) width is the 3rd entry
    spaces: List[BlockSpace] = []
    # Inverted bottleneck 1: e and n are fixed to 1.
    spaces.append(BlockSpace(
        name="ib1", kernel_choices=KERNEL_CHOICES, width_choices=widths,
        expansion_choices=(1,), repetition_choices=(1,),
        seed=BlockGenes(3, seed_width, 1, 1)))
    # Inverted bottlenecks 2-6: fully searchable.
    for i in range(2, 7):
        spaces.append(BlockSpace(
            name=f"ib{i}", kernel_choices=KERNEL_CHOICES,
            width_choices=widths, expansion_choices=EXPANSION_CHOICES,
            repetition_choices=REPETITION_CHOICES,
            seed=BlockGenes(3, seed_width, 6, 1)))
    # Inverted bottleneck 7: repetitions fixed to 1.
    spaces.append(BlockSpace(
        name="ib7", kernel_choices=KERNEL_CHOICES, width_choices=widths,
        expansion_choices=EXPANSION_CHOICES, repetition_choices=(1,),
        seed=BlockGenes(3, seed_width, 6, 1)))
    return tuple(spaces)


def quantization_slot_names() -> List[str]:
    """The 23 quantization slots of the seed template.

    One slot per convolution role: the stem, ib1's depthwise + projection
    (ib1 has no expansion since e=1), expand/depthwise/project for ib2-7,
    the head convolution and the classifier.  Repetitions of a block share
    its slots.
    """
    slots = ["stem", "ib1.dw", "ib1.project"]
    for i in range(2, 8):
        slots.extend([f"ib{i}.expand", f"ib{i}.dw", f"ib{i}.project"])
    slots.extend(["conv2", "classifier"])
    return slots


class SearchSpace:
    """The joint architecture x quantization-policy space of Table I.

    Args:
        dataset: ``"cifar10"`` or ``"cifar100"`` — selects the width
            multiplier menu (the only difference between the two spaces).
        bitwidth_choices: weight bitwidth menu, ``(4..8)`` in the paper.
    """

    def __init__(self, dataset: str = "cifar10",
                 bitwidth_choices: Sequence[int] = DEFAULT_BITWIDTH_CHOICES
                 ) -> None:
        if dataset == "cifar10":
            width_choices = CIFAR10_WIDTH_CHOICES
        elif dataset == "cifar100":
            width_choices = CIFAR100_WIDTH_CHOICES
        else:
            raise ValueError(f"unknown dataset {dataset!r}")
        self.dataset = dataset
        self.width_choices = width_choices
        self.bitwidth_choices = tuple(bitwidth_choices)
        self.blocks = _block_spaces(width_choices)
        self.conv2_filter_choices = CONV2_FILTER_CHOICES
        self.slot_names = quantization_slot_names()

    # -- cardinality -----------------------------------------------------
    def num_architectures(self) -> int:
        total = len(self.conv2_filter_choices)
        for block in self.blocks:
            total *= block.num_choices()
        return total

    def num_policies(self) -> int:
        return len(self.bitwidth_choices) ** len(self.slot_names)

    def num_total(self) -> int:
        return self.num_architectures() * self.num_policies()

    # -- seed -------------------------------------------------------------
    def seed_arch(self) -> ArchGenome:
        """The seed architecture (bold entries of Table I): MobileNetV2."""
        return ArchGenome(
            blocks=tuple(b.seed for b in self.blocks),
            conv2_filters=1280)

    def seed_policy(self, bits: int = 8) -> QuantizationPolicy:
        """Homogeneous policy at ``bits`` (the seed bitwidth is 8)."""
        return QuantizationPolicy.homogeneous(
            self.slot_names, bits, allowed=self.bitwidth_choices)

    def seed_genome(self) -> MixedPrecisionGenome:
        return MixedPrecisionGenome(self.seed_arch(), self.seed_policy())

    # -- sampling ----------------------------------------------------------
    def random_arch(self, rng: np.random.Generator) -> ArchGenome:
        return ArchGenome(
            blocks=tuple(b.sample(rng) for b in self.blocks),
            conv2_filters=int(rng.choice(self.conv2_filter_choices)))

    def random_policy(self, rng: np.random.Generator) -> QuantizationPolicy:
        bits = {slot: int(rng.choice(self.bitwidth_choices))
                for slot in self.slot_names}
        return QuantizationPolicy(bits, allowed=self.bitwidth_choices)

    def random_genome(self, rng: np.random.Generator) -> MixedPrecisionGenome:
        return MixedPrecisionGenome(self.random_arch(rng),
                                    self.random_policy(rng))

    # -- validation ---------------------------------------------------------
    def validate(self, genome: MixedPrecisionGenome) -> None:
        """Raise ``ValueError`` if a genome is outside this space."""
        for block_space, genes in zip(self.blocks, genome.arch.blocks):
            block_space.validate(genes)
        if genome.arch.conv2_filters not in self.conv2_filter_choices:
            raise ValueError(
                f"conv2 filters {genome.arch.conv2_filters} invalid")
        policy = genome.policy.as_dict()
        if set(policy) != set(self.slot_names):
            raise ValueError("policy slots do not match this search space")
        for slot, bits in policy.items():
            if bits not in self.bitwidth_choices:
                raise ValueError(f"slot {slot}: bitwidth {bits} invalid")

    # -- mutation / crossover ------------------------------------------------
    def mutate_arch(self, arch: ArchGenome, rng: np.random.Generator,
                    n_mutations: int = 1) -> ArchGenome:
        """Randomly re-sample ``n_mutations`` architecture genes."""
        if n_mutations < 1:
            raise ValueError("n_mutations must be >= 1")
        blocks = [list(b.as_tuple()) for b in arch.blocks]
        conv2 = arch.conv2_filters
        # mutable gene coordinates: (block_idx, gene_idx) or ("conv2",)
        coords: List[Tuple] = []
        for bi, bs in enumerate(self.blocks):
            menus = (bs.kernel_choices, bs.width_choices,
                     bs.expansion_choices, bs.repetition_choices)
            for gi, menu in enumerate(menus):
                if len(menu) > 1:
                    coords.append((bi, gi))
        coords.append(("conv2",))
        chosen = rng.choice(len(coords), size=min(n_mutations, len(coords)),
                            replace=False)
        for ci in np.atleast_1d(chosen):
            coord = coords[int(ci)]
            if coord[0] == "conv2":
                conv2 = int(rng.choice(self.conv2_filter_choices))
            else:
                bi, gi = coord
                bs = self.blocks[bi]
                menus = (bs.kernel_choices, bs.width_choices,
                         bs.expansion_choices, bs.repetition_choices)
                blocks[bi][gi] = menus[gi][int(rng.integers(len(menus[gi])))]
        new_blocks = tuple(
            BlockGenes(int(b[0]), float(b[1]), int(b[2]), int(b[3]))
            for b in blocks)
        return ArchGenome(blocks=new_blocks, conv2_filters=conv2)

    def mutate_policy(self, policy: QuantizationPolicy,
                      rng: np.random.Generator,
                      n_mutations: int = 1) -> QuantizationPolicy:
        """Randomly re-sample ``n_mutations`` slot bitwidths."""
        if n_mutations < 1:
            raise ValueError("n_mutations must be >= 1")
        bits = policy.as_dict()
        slots = rng.choice(self.slot_names,
                           size=min(n_mutations, len(self.slot_names)),
                           replace=False)
        for slot in np.atleast_1d(slots):
            bits[str(slot)] = int(rng.choice(self.bitwidth_choices))
        return QuantizationPolicy(bits, allowed=self.bitwidth_choices)

    def mutate(self, genome: MixedPrecisionGenome, rng: np.random.Generator,
               n_mutations: int = 1,
               policy_fixed: bool = False) -> MixedPrecisionGenome:
        """Mutate a joint genome; gene picked uniformly over arch + policy.

        With ``policy_fixed`` only architecture genes mutate (used by the
        fixed-precision and post-NAS-quantization search modes).
        """
        arch, policy = genome.arch, genome.policy
        for _ in range(n_mutations):
            n_arch_genes = 4 * len(self.blocks) + 1
            n_policy_genes = 0 if policy_fixed else len(self.slot_names)
            pick = rng.integers(n_arch_genes + n_policy_genes)
            if pick < n_arch_genes:
                arch = self.mutate_arch(arch, rng)
            else:
                policy = self.mutate_policy(policy, rng)
        return MixedPrecisionGenome(arch, policy)

    def crossover(self, a: MixedPrecisionGenome, b: MixedPrecisionGenome,
                  rng: np.random.Generator) -> MixedPrecisionGenome:
        """Uniform crossover over blocks and policy slots."""
        blocks = tuple(
            a.arch.blocks[i] if rng.random() < 0.5 else b.arch.blocks[i]
            for i in range(len(self.blocks)))
        conv2 = (a.arch.conv2_filters if rng.random() < 0.5
                 else b.arch.conv2_filters)
        bits_a, bits_b = a.policy.as_dict(), b.policy.as_dict()
        bits = {slot: bits_a[slot] if rng.random() < 0.5 else bits_b[slot]
                for slot in self.slot_names}
        return MixedPrecisionGenome(
            ArchGenome(blocks=blocks, conv2_filters=conv2),
            QuantizationPolicy(bits, allowed=self.bitwidth_choices))

    # -- vector encoding (for GP kernels) -------------------------------------
    def encode(self, genome: MixedPrecisionGenome) -> np.ndarray:
        """Normalized ordinal encoding of a genome.

        Each gene becomes its index in the choice menu divided by
        ``len(menu) - 1`` (0 for singleton menus), so every coordinate lies
        in [0, 1] and the L1 distance between encodings is a normalized
        edit distance.  This is the representation the GP kernel sees.
        """
        values: List[float] = []
        for bs, genes in zip(self.blocks, genome.arch.blocks):
            menus = (bs.kernel_choices, bs.width_choices,
                     bs.expansion_choices, bs.repetition_choices)
            gene_values = genes.as_tuple()
            for menu, value in zip(menus, gene_values):
                values.append(_ordinal(menu, value))
        values.append(_ordinal(self.conv2_filter_choices,
                               genome.arch.conv2_filters))
        bits = genome.policy.as_dict()
        for slot in self.slot_names:
            values.append(_ordinal(self.bitwidth_choices, bits[slot]))
        return np.asarray(values, dtype=np.float64)

    def summary(self) -> str:
        """Render the Table I menus with cardinalities."""
        lines = [f"SearchSpace({self.dataset}):"]
        for bs in self.blocks:
            lines.append(
                f"  {bs.name}: k={list(bs.kernel_choices)} "
                f"a={list(bs.width_choices)} e={list(bs.expansion_choices)} "
                f"n={list(bs.repetition_choices)}")
        lines.append(f"  conv2 filters: {list(self.conv2_filter_choices)}")
        lines.append(f"  bitwidths: {list(self.bitwidth_choices)} over "
                     f"{len(self.slot_names)} slots")
        lines.append(f"  architectures: {self.num_architectures():.3e}")
        lines.append(f"  policies:      {self.num_policies():.3e}")
        lines.append(f"  joint:         {self.num_total():.3e}")
        return "\n".join(lines)


def _ordinal(menu: Sequence, value) -> float:
    """Index of ``value`` in ``menu`` normalized to [0, 1]."""
    try:
        index = list(menu).index(value)
    except ValueError:
        raise ValueError(f"value {value!r} not in menu {list(menu)}")
    if len(menu) == 1:
        return 0.0
    return index / (len(menu) - 1)
