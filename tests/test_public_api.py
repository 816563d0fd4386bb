"""The public surface: ``repro.__all__``, the docs/API.md snippets and
the example programs.

Three guarantees: every name the package advertises actually resolves,
every ``python`` code block in docs/API.md executes as written (run in
order, in one shared namespace), and every ``examples/*.py`` runs to exit
0 against ``src/`` -- so neither the documentation nor the examples can
drift from the code.
"""

import glob
import os
import re
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_API = os.path.join(ROOT, "docs", "API.md")
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_all_names_resolve():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []


def test_all_is_sorted_and_unique():
    # keep the surface reviewable: sorted (dunders last), no duplicates
    names = list(repro.__all__)
    assert len(names) == len(set(names))
    public = [n for n in names if not n.startswith("_")]
    assert public == sorted(public)


def test_documented_surface_is_exported():
    # the names the quickstart and docs lean on, spelled out so an
    # accidental __all__ regression fails loudly with the missing name
    for name in ("Group", "GroupEndpoint", "StackConfig", "NetworkConfig",
                 "HostModel", "ObsConfig", "MetricsRegistry",
                 "MuteNode", "VerboseNode", "TwoFacedCaster",
                 "check_virtual_synchrony", "View", "ViewId",
                 "Cluster", "ShardManager", "ShardDirectory", "HashRing",
                 "ShardedRSM", "ShardConfig"):
        assert name in repro.__all__, name
        assert hasattr(repro, name), name


def _api_md_blocks():
    with open(DOCS_API) as handle:
        text = handle.read()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_api_md_has_snippets():
    assert len(_api_md_blocks()) >= 5


def test_api_md_snippets_execute():
    blocks = _api_md_blocks()
    namespace = {}
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, "docs/API.md block %d" % index, "exec"),
                 namespace)
        except Exception as exc:  # pragma: no cover - diagnostic path
            pytest.fail("docs/API.md block %d failed: %r\n%s"
                        % (index, exc, block))


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, path], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
