"""The benchmark's trace points: every name it wraps must still exist and run; and what `eval` imports."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


# Installs the tracer, then runs the context stage through the CLI on the
# case-study model, as a traced paper-describe round runs it.
TRACED_CONTEXT = """
import sys
out = sys.argv.pop()
sys.path[:0] = sys.argv[1:]
from spans import Tracer
Tracer().install()
from helpers import case_study_model, case_study_vocab
from tmnovelty.cli import main
from tmnovelty.corpus import write_vocabulary
write_vocabulary(case_study_vocab(), out + "/vocabulary.txt")
case_study_model().save(out + "/model.tm")
sys.exit(main(["context", "--words", "rugby,old,cricket", "--out", out]))
"""


# Writes the case-study model and eight token lists into ``out`` and runs the
# eval stage on them through the CLI.
EVAL_RUN = """
from helpers import case_study_model, case_study_vocab
from tmnovelty.cli import main
from tmnovelty.corpus import Label, write_tokens, write_vocabulary
write_vocabulary(case_study_vocab(), out + "/vocabulary.txt")
case_study_model().save(out + "/model.tm")
docs = [(f"k{i}", Label.KNOWN, ["cricket", "six", "hit"][: 1 + i % 3]) for i in range(4)]
docs += [(f"n{i}", Label.NOVEL, ["rugby", "old", "despite"][: 1 + i % 3]) for i in range(4)]
write_tokens(docs, out + "/tokens.csv")
assert main(["eval", "--out", out]) == 0
"""


# Installs the tracer, then runs the eval stage: each ranker reduces every
# document once, inside its feature matrix.
TRACED_EVAL = """
import sys
out = sys.argv.pop()
sys.path[:0] = sys.argv[1:]
from spans import Tracer
tracer = Tracer()
tracer.install()
""" + EVAL_RUN + """
spans = tracer.spans
names = {span[0] for span in spans}
for name in ("evaluation.score_discrimination", "evaluation.fit_logistic", "evaluation.roc_pr"):
    assert name in names, (name, sorted(names))
reduced = [span for span in spans if span[0] == "novelty.score_document"]
assert len(reduced) == 2 * len(docs), len(reduced)
for span in reduced:
    assert span[3] >= 0 and spans[span[3]][0] == "evaluation.doc_feature_matrix", spans[span[3]]
"""


# Runs the eval stage untraced: nothing it calls imports numpy.ma, which
# np.unique does (about 1 MiB of the stage's peak).
UNTRACED_EVAL = """
import sys
out = sys.argv.pop()
sys.path[:0] = sys.argv[1:]
""" + EVAL_RUN + """
assert "numpy.ma" not in sys.modules, sorted(name for name in sys.modules if name.startswith("numpy.ma"))
"""


def _run_traced(script: str, last_arg: Path) -> subprocess.CompletedProcess:
    # A fresh interpreter, so the wrapped functions never leak into this one.
    return subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"), str(last_arg)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_tracer_installs(tmp_path):
    result = _run_traced(TRACED_ROUND_TRIP, tmp_path / "model.tm")
    assert result.returncode == 0, result.stderr


def test_traced_context_stage_runs(tmp_path):
    result = _run_traced(TRACED_CONTEXT, tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "context_novel.csv").is_file()


def test_traced_eval_stage_reduces_each_document_once_per_ranker(tmp_path):
    result = _run_traced(TRACED_EVAL, tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "doc_scores.csv").is_file()


def test_eval_stage_leaves_numpy_ma_unimported(tmp_path):
    result = _run_traced(UNTRACED_EVAL, tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "report.json").is_file()


def _load_faults() -> dict:
    spec = importlib.util.spec_from_file_location("faults", ROOT / "perfbench" / "faults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAULTS


FAULTS = _load_faults()
# Faults whose anchor text left the source in a rewrite; the benchmark still lists them.
GONE = pytest.mark.xfail(reason="anchor gone; ROADMAP item 2")


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=GONE) if n in ("routing", "type-ii-step", "save-order") else n for n in FAULTS]
)
def test_fault_anchor_occurs_once(name):
    # The benchmark plants each fault by replacing this text, so it must stay, once, in its file.
    file, text, *_ = FAULTS[name]
    assert (ROOT / "src" / "tmnovelty" / file).read_text("utf-8").count(text) == 1
