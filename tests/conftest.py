"""Puts this directory on sys.path so that test modules can import the
shared product-route oracle (`theta_oracle`) under any pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
