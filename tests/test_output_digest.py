"""tools/output_digest.py covers every shipped config and demo (nothing is run)."""

import importlib.util
from pathlib import Path

from aia import sweeps

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest",
                                               ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_digest_lists_every_shipped_config_and_demo():
    assert list(output_digest.CONFIGS) == sorted(p.name for p in (ROOT / "configs").glob("*.cfg"))
    assert list(output_digest.DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_digest_scans_one_shipped_config_per_model():
    models = [sweeps.load_config(ROOT / "configs" / name).model
              for name, _ in output_digest.SCANS]
    assert sorted(models) == sorted(sweeps.MODELS)
