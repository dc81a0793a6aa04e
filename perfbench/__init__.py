"""Benchmark of the modext certify pipeline; run it with `python3 perfbench/run.py`."""
