"""Point patterns, point-shifts, and their discrete foliations."""

__version__ = "0.1.0"
