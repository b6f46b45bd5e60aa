"""Start-up cost: importing the CLI, parsing every bundled config but
simulate's, and running chaos, isometry and charfn load no scipy
subpackage; each is imported where it is called (README, "Dependencies at
start-up")."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, sys
from levynoise import cli
from levynoise.experiments import parse_config, run_experiment

for name in ("ito-lemma", "ito1", "ito2", "chaos", "interlace", "isometry", "kunita", "charfn",
             "martingale"):
    parse_config(json.loads(cli.bundled_config_text(name)))
verdicts = 0
for name, replicates, params in (("chaos", 40, {"product_check_paths": 5}),
                                 ("isometry", 200, {}), ("charfn", 200, {})):
    raw = json.loads(cli.bundled_config_text(name))
    raw["replicates"] = replicates
    raw["params"].update(params)
    verdicts += len(run_experiment(parse_config(raw)).verdicts)
print(json.dumps({"verdicts": verdicts, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_parse_and_chaos_import_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["verdicts"] > 0
    assert out["scipy"] == []
