"""Plant a known fault in a copy of the program, to show a check catches it.

    python3 perfbench/faults.py <fault> <root of a copy of the repository>
    cd <copy> && python3 perfbench/run.py --workload <name> --seed 0 --seconds 30

Run it only on a copy: it rewrites files under ``src/``.  The benchmark run
in the copy must then print ``"correct": false`` and name the failed check
on standard error.  ``python3 perfbench/faults.py --list`` shows each fault
with the workload and check that catch it.
"""

from __future__ import annotations

import sys
from pathlib import Path

# name: (file under src/tmnovelty, text, replacement, workload, catching check)
FAULTS = {
    "idf": (
        "baseline.py",
        "word: math.log2(total_docs / (containing + 1))",
        "word: math.log2(total_docs / containing)",
        "paper-describe", "TF-IDF recomputed from tokens.csv",
    ),
    "routing": (
        "novelty.py",
        "votes_known = (clause.label is Label.KNOWN) == (clause.polarity is Polarity.POSITIVE)",
        "votes_known = clause.label is Label.KNOWN",
        "paper-describe", "word bags and scores re-derived from model.tm",
    ),
    "smoothing": (
        "novelty.py",
        "count = max(count, 1)",
        "count = count + 1",
        "paper-describe", "word bags and scores re-derived from model.tm",
    ),
    "pair-group": (
        "novelty.py",
        "group = [c for c in clauses if c.label is label]",
        "group = list(clauses)",
        "paper-describe", "context matrix from the benchmark's own pair counts",
    ),
    "doc-aggregate": (
        "novelty.py",
        "occurrence_scores = [table.scores[t] for t in tokens if t in table.scores]",
        "occurrence_scores = [table.scores[t] for t in sorted(set(tokens)) if t in table.scores]",
        "paper-describe", "doc_scores.csv recomputed from the token lists",
    ),
    "stemmer": (
        "corpus.py",
        '_SUFFIXES = ("ing", "ed", "es", "s")',
        '_SUFFIXES = ("ing", "ed", "es", "s", "o")',
        "paper-describe", "ingest outputs against the generated words",
    ),
    "classify": (
        "tsetlin.py",
        "return sums[Label.NOVEL] > sums[Label.KNOWN]",
        "return sums[Label.NOVEL] < sums[Label.KNOWN]",
        "paper-train", "per-literal accuracy against the last accuracy-trace value",
    ),
    "type-ii-step": (
        "tsetlin.py",
        "self.state[fired_rows] = block + bump.astype(np.int16)",
        "self.state[fired_rows] = block + 200 * bump.astype(np.int16)",
        "paper-train", "all states in [1, 2 * state_count]",
    ),
    "save-order": (
        "tsetlin.py",
        "        for label in (Label.KNOWN, Label.NOVEL):\n            blob +=",
        "        for label in (Label.NOVEL, Label.KNOWN):\n            blob +=",
        "paper-train", "saved file decodes to the in-memory states",
    ),
    "unseeded": (
        "tsetlin.py",
        "rng = np.random.default_rng(model.params.seed)",
        "rng = np.random.default_rng()",
        "paper-train", "byte-identical model files for equal seeds",
    ),
    "logistic": (
        "evaluation.py",
        "weights -= learning_rate * grad_w",
        "weights += learning_rate * grad_w",
        "paper-describe", "quality floor on the clause-score AUC",
    ),
}


def plant(name: str, root: Path) -> None:
    file, text, replacement, _, _ = FAULTS[name]
    path = root / "src" / "tmnovelty" / file
    source = path.read_text("utf-8")
    if source.count(text) != 1:
        raise SystemExit(f"{file}: the text to replace is not there exactly once")
    path.write_text(source.replace(text, replacement), encoding="utf-8")


def main() -> int:
    if sys.argv[1:] == ["--list"]:
        for name, (file, _, _, workload, check) in FAULTS.items():
            print(f"{name:14} {file:12} {workload:15} {check}")
        return 0
    if len(sys.argv) != 3 or sys.argv[1] not in FAULTS:
        print(__doc__, file=sys.stderr)
        return 2
    plant(sys.argv[1], Path(sys.argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
