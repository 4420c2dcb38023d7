"""Puts this directory on sys.path so that test modules can import the
shared product-route oracle (`theta_oracle`) under any pytest import mode,
and `scripts/` beside it for the tests of the scripts."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "scripts")]
