"""End-to-end LocBLE benchmark (see run.py)."""
