"""Benchmark suite configuration."""

import sys
from pathlib import Path

# Make the sibling `_common` helpers importable from the ablation benches.
sys.path.insert(0, str(Path(__file__).parent))
