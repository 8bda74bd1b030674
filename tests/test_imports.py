"""Import layering: a CLI campaign loads only its command's layers.

The package ``__init__``s re-export lazily (PEP 562), and ``repro.cli``
imports each command's layers inside the command.  These tests check
which modules load, not how long that takes.
"""

from __future__ import annotations

import importlib
import json

import pytest

from tests.helpers import run_fresh

#: Layers an ``exhaustive`` run must never load.
FOREIGN = ("repro.serve", "repro.dist", "repro.optimize", "repro.compose",
           "repro.analysis", "http.server", "urllib.request")

_PROBE = r"""
import json, sys

FOREIGN = %r

def absent(extra=()):
    return [m for m in FOREIGN + tuple(extra) if m in sys.modules]

steps = {}
import repro.cli
steps["import"] = absent(("numpy",))
repro.cli.build_parser().parse_args(["exhaustive", "--kernel", "cg",
                                   "--out", sys.argv[1]])
steps["parse"] = absent(("numpy",))
rc = repro.cli.main(["exhaustive", "--kernel", "cg", "--param", "n=4",
                     "--out", sys.argv[1]])
steps["run"] = absent()
steps["rc"] = rc
print(json.dumps(steps))
""" % (FOREIGN,)


def test_exhaustive_loads_no_foreign_layer(tmp_path):
    proc = run_fresh(_PROBE, str(tmp_path / "g.npz"))
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert steps.pop("rc") == 0
    assert steps == {"import": [], "parse": [], "run": []}
    assert (tmp_path / "g.npz").exists()


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.engine", "repro.cfg", "repro.io",
    "repro.parallel"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_submodules_stay_reachable_as_attributes():
    import repro

    assert repro.core.campaign.run_campaign is repro.run_campaign
    assert repro.engine.batch.BatchReplayer is repro.engine.BatchReplayer
    with pytest.raises(AttributeError):
        repro.core.no_such_name  # noqa: B018
