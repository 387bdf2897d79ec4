"""A steady benchmark of the repro program: see README.md."""
