"""Make the benchmark's own tests import the checkout's sources: ``python3 -m pytest perfbench``."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
