"""Cognitive-hierarchy engine with a causal-tree embedding and a tracking demo."""

__version__ = "0.1.0"
