"""The golden scripts reprint the goldens that the acceptance suite freezes.

scripts/oracle_koebe_threshold.py froze KOEBE_REFLECTED_SUP, and
scripts/render_gallery.py froze GOLDEN_IDENTITY_GRID and GOLDEN_KOEBE_DOMAIN
(tests/test_acceptance.py).  Rerunning them must reprint those values, so
each runs here as README runs it: a subprocess from the repository root with
src on PYTHONPATH.  scripts/ledger.py printed tests/ledger.txt; it runs in
this process, which has already imported numpy and qcext, to keep the test
short.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(relpath):
    spec = importlib.util.spec_from_file_location(f"qcext_{Path(relpath).stem}", ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _acceptance():
    return _load("tests/test_acceptance.py")


def _run_script(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def test_koebe_oracle_reprints_its_golden():
    lines = _run_script("scripts/oracle_koebe_threshold.py")
    (line,) = [line for line in lines if line.startswith("64x64 ")]
    assert f"sup_mu = {_acceptance().KOEBE_REFLECTED_SUP!r} " in line


def test_gallery_reprints_the_image_goldens(tmp_path):
    lines = _run_script("scripts/render_gallery.py", str(tmp_path))
    digests = {tuple(line.split()[:2]): line.split()[2] for line in lines}
    goldens = _acceptance()
    assert digests["identity", "grid"] == goldens.GOLDEN_IDENTITY_GRID
    assert digests["koebe", "domaincolor"] == goldens.GOLDEN_KOEBE_DOMAIN


def test_ledger_reprints_byte_for_byte(capsys):
    assert _load("scripts/ledger.py").main() == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "ledger.txt").read_text(encoding="utf-8")


def test_ledger_covers_the_frozen_chain_cases():
    cases = _load("scripts/ledger.py").chain_cases()
    assert sorted(cases) == sorted(_load("tests/test_report.py").CHAIN_GRID_TMAX_DIGESTS)
