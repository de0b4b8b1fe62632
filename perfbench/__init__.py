"""End-to-end and per-layer benchmark of implab; run ``perfbench/run.py``."""
