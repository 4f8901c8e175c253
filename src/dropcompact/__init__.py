"""Dropout compaction: train feed-forward nets whose per-unit retention
probabilities converge to 0 or 1, then remove the dead units."""
