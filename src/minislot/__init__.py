"""Two-tier 360-degree video delivery on a multi-numerology mini-slot grid.

A simulator and scheduling library: resource-grid geometry, millimetre-wave
link budget, logarithmic QoE, an episodic allocation environment, a
self-contained deep-Q allocator, equal-split baselines and an exhaustive
search reference, plus a reproducible experiment harness.
"""

__version__ = "0.1.0"
