"""The closed-form golden cases of scripts/golden_digests.py, byte for byte.

`pnc penalty` and `pnc chain` take well under a second together, so any
change to a digit of the penalty curves, their footer or a chain plan
fails here, not only in the full golden run.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CLOSED_FORM = ("penalty_05", "penalty_025", "penalty_1", "penalty_t8_config",
               "chain_5", "chain_9h")


_spec = importlib.util.spec_from_file_location("_golden_digests", SCRIPTS / "golden_digests.py")
golden = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_closed_form_outputs_match_the_checked_in_digests():
    got = golden.digests(CLOSED_FORM)
    assert sorted(got) == sorted(CLOSED_FORM)
    listing = (SCRIPTS / "golden_digests.txt").read_text(encoding="utf-8")
    assert golden.check(listing, got, complete=False) == []


def test_a_changed_digest_is_named():
    listing = "penalty_05 00\nchain_5 11\n"
    assert golden.check(listing, {"penalty_05": "00", "chain_5": "12"}, complete=False) == \
        ["chain_5: expected 11, got 12"]
    assert golden.check(listing, {"penalty_05": "00"}) == ["chain_5: listed but not computed"]
