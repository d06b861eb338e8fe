"""Puts the benchmark's modules and the checkout's ``src`` on the path.

Run from the root of a checkout: ``python -m pytest perfbench/tests``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
