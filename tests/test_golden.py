"""Every golden case of scripts/golden_digests.py, byte for byte.

The closed-form cases (`pnc penalty` and `pnc chain`) take well under a
second and have a test of their own; the Monte-Carlo cases take a few
seconds.  Together they cover the whole listing, so any changed digit of
any output fails tier-1, not only an explicit `--check` run.
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


def test_monte_carlo_outputs_match_the_checked_in_digests():
    listing = (SCRIPTS / "golden_digests.txt").read_text(encoding="utf-8")
    listed = [line.split()[0] for line in listing.splitlines() if line.strip()]
    assert sorted(listed) == sorted([*golden.cases(), *golden.CONFIGS])
    assert set(CLOSED_FORM) <= set(listed)
    rest = [name for name in listed if name not in CLOSED_FORM]
    got = golden.digests(rest)
    assert sorted(got) == sorted(rest)
    assert golden.check(listing, got, complete=False) == []


def test_a_changed_digest_is_named():
    listing = "penalty_05 00\nchain_5 11\n"
    assert golden.check(listing, {"penalty_05": "00", "chain_5": "12"}, complete=False) == \
        ["chain_5: expected 11, got 12"]
    assert golden.check(listing, {"penalty_05": "00"}) == ["chain_5: listed but not computed"]
