"""The benchmark's trace points: every name it wraps must still exist and run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Installs the tracer, then runs the traced read side on the case-study model:
# save -> load -> extract_clauses, checking each step left its span.
TRACED_ROUND_TRIP = """
import sys
model_path = sys.argv.pop()
sys.path[:0] = sys.argv[1:]
from spans import Tracer
tracer = Tracer()
tracer.install()
from helpers import case_study_model, case_study_vocab
from tmnovelty import tsetlin
case_study_model().save(model_path)
clauses = tsetlin.extract_clauses(tsetlin.TMModel.load(model_path), case_study_vocab())
assert len(clauses) == 8, clauses
names = {span[0] for span in tracer.spans}
for name in ("tsetlin.save", "files.write", "tsetlin.load", "tsetlin.extract_clauses"):
    assert name in names, (name, sorted(names))
assert tracer.counts["tsetlin.extract_calls"] == 1, tracer.counts
from pathlib import Path
assert tracer.counts["files.written_bytes"] == Path(model_path).stat().st_size, tracer.counts
"""


def test_benchmark_tracer_installs(tmp_path):
    # A fresh interpreter, so the wrapped functions never leak into this one.
    result = subprocess.run(
        [
            sys.executable, "-c", TRACED_ROUND_TRIP,
            str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"), str(tmp_path / "model.tm"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
