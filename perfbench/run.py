"""Seeded benchmark for tmnovelty.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from the seed (set-up, timed several times),
then runs whole rounds of the workload's stages, each stage in a process of
its own, until ``--seconds`` have passed.  The outputs of the last round are
checked against computations made apart from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones from the traced rounds.  Run from the root of
a checkout; working files go to ``.perfbench_work/`` there and are removed
at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from spans import LAYERS, summarize

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
MIB = 2**20
STAGE_TIMEOUT_S = 150

# Quality floors on the eval report (acceptance criterion C4).  Both hold on
# every seed from 0 to 11; see README.md.
FLOORS = {"tm_auc": 0.95, "auc_lead": -0.02}


class Workload:
    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.out = work / "out"

    # Set-up is timed this many times and setup_s is the median.
    setup_repeats = 5

    def setup(self) -> None:
        raise NotImplementedError

    stage_names: tuple[str, ...] = ()

    def spec(self, stage: str) -> dict:
        """The stage's spec for stage.py, built when the stage is about to run."""
        raise NotImplementedError

    def after_stage(self, name: str, result: dict) -> None:
        pass

    def check(self) -> None:
        raise NotImplementedError

    def cli(self, *argv: str) -> dict:
        return {"kind": "cli", "argv": [*argv, "--out", str(self.out)]}


class PaperTrain(Workload):
    """``fit`` at the full profile from the deep state on a seeded slice, then ``save``."""

    docs = 16
    epochs = 1
    setup_repeats = 11  # set-up takes about 0.2 s here

    def setup(self) -> None:
        corpus = inputs.paper_corpus(self.seed, REPO)
        rows = inputs.doc_slice(corpus, self.seed, self.docs)
        labels = corpus.labels()
        self.bits = inputs.bit_matrix(corpus, rows)
        self.is_novel = np.array([labels[d] == "novel" for d in rows])
        np.savez(self.work / "slice.npz", bits=self.bits, is_novel=self.is_novel)
        self.vocab_hash = corpus.vocab_hash()
        self.results: list[dict] = []

    stage_names = ("train",)

    def spec(self, stage: str) -> dict:
        return {
            "kind": "train",
            "docs": str(self.work / "slice.npz"),
            "clauses": inputs.CLAUSES,
            "epochs": self.epochs,
            "seed": self.seed,
            "vocab_hash": self.vocab_hash,
            "out": str(self.out / "model.tm"),
        }

    def after_stage(self, name: str, result: dict) -> None:
        self.results.append(result)

    def check(self) -> None:
        for r in self.results:
            checks.require(not r["check"], r["check"])
        digests = {r["sha256"] for r in self.results}
        checks.require(len(digests) == 1, f"equal seeds gave {len(digests)} different model files")
        model = checks.decode_model(self.out / "model.tm")
        checks.check_state_range(model)
        last = self.results[-1]["accuracy_trace"][-1]
        naive = checks.naive_accuracy(model, self.bits, self.is_novel)
        checks.require(naive == last, f"per-literal accuracy {naive} differs from the trace's {last}")


class PaperDescribe(Workload):
    """ingest, describe, context, tfidf and eval on a prepared paper-shape model."""

    def setup(self) -> None:
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        self.corpus = inputs.paper_corpus(self.seed, REPO)
        inputs.write_grouped_dirs(self.corpus, self.work / "corpus")
        inputs.prepare_model(self.corpus, self.seed, self.out / "model.tm")
        self.words: list[str] = []
        self.reports: set[str] = set()

    stage_names = ("ingest", "describe", "context", "tfidf", "eval")

    def spec(self, stage: str) -> dict:
        if stage == "context" and not self.words:
            self.words = _top_bag_words(self.out / "model.tm", self.corpus.vocabulary())
        args = {
            "ingest": (
                "--data-root", str(self.work / "corpus"),
                "--known-groups", "cricket;football", "--novel-groups", "rugby",
            ),
            "context": ("--words", ",".join(self.words), "--target-class", "novel"),
            "eval": ("--seed", str(self.seed)),
        }
        return self.cli(stage, *args.get(stage, ()))

    def after_stage(self, name: str, result: dict) -> None:
        if name == "eval":
            self.reports.add(hashlib.sha256((self.out / "report.json").read_bytes()).hexdigest())

    def check(self) -> None:
        checks.require(len(self.reports) == 1, f"equal seeds gave {len(self.reports)} different report.json files")
        docs = [(f"{group}/{name}", "novel" if group == "rugby" else "known", tokens)
                for group, name, tokens in self.corpus.docs]
        checks.check_ingest(self.out, docs)
        checks.check_read_side(self.out, "novel", FLOORS)


CONTEXT_WORDS_PER_BAG = 8


def _top_bag_words(model_path: Path, vocab: list[str]) -> list[str]:
    """The most frequent words of the novel and the known bag, by the benchmark's decoding."""
    bags = checks.word_bags(checks.decode_model(model_path))
    picked: list[str] = []
    for counts in (bags.novel, bags.known):
        for i in np.argsort(-counts, kind="stable")[:CONTEXT_WORDS_PER_BAG]:
            if vocab[i] not in picked:
                picked.append(vocab[i])
    return picked


WORKLOADS = {"paper-train": PaperTrain, "paper-describe": PaperDescribe}


# ---------------------------------------------------------------------------
# Rounds and metrics.
# ---------------------------------------------------------------------------


def run_stage(spec: dict, trace: bool, spans_out: Path) -> dict | None:
    """One stage in a fresh interpreter; None when it fails or times out."""
    spec = {**spec, "trace": trace, "spans_out": str(spans_out)}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "stage.py"), json.dumps(spec)],
            capture_output=True, text=True, cwd=REPO, timeout=STAGE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"stage timed out after {STAGE_TIMEOUT_S} s: {spec.get('argv', spec['kind'])}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["exit"] != 0:
        print(f"stage failed: {spec.get('argv', spec['kind'])}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return result


def run_round(workload: Workload, trace: bool, index: int) -> dict:
    stages: dict[str, dict] = {}
    failed = 0
    for name in workload.stage_names:
        spans_out = workload.work / f"spans-{index}-{name}.json"
        result = run_stage(workload.spec(name), trace, spans_out)
        if result is None:
            failed += 1
            continue
        workload.after_stage(name, result)
        if trace:
            result["trace"] = json.loads(spans_out.read_text("utf-8"))
            spans_out.unlink()
        stages[name] = result
    times = " ".join(f"{name} {r['seconds']:.3f}" for name, r in stages.items())
    print(f"round {index}{' traced' if trace else ''}: {times}", file=sys.stderr)
    return {"stages": stages, "attempted": len(workload.stage_names), "failed": failed, "trace": trace}


def _round_seconds(round_: dict) -> float:
    return sum(s["seconds"] for s in round_["stages"].values())


def end_to_end(setup_times: list[float], rounds: list[dict], model: Path) -> dict:
    """Medians over the rounds; empty when no stage ran to its end."""
    rounds = [r for r in rounds if r["stages"]]
    if not rounds:
        return {}
    totals = [_round_seconds(r) for r in rounds]
    peaks = [max(s["peak_rss_mb"] for s in r["stages"].values()) for r in rounds]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (statistics.median(totals), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
        "model_mb": (model.stat().st_size / MIB, "MiB"),
    }


STAGES = ("ingest", "train", "describe", "context", "tfidf", "eval")
TIMED_SPANS = (
    "tsetlin.fired", "tsetlin.type_i", "tsetlin.type_ii", "tsetlin.classify_batch", "tsetlin.save",
    "tsetlin.load", "tsetlin.extract_clauses", "corpus.tokenize", "corpus.build_vocabulary",
    "corpus.booleanize", "corpus.read_tokens", "corpus.corpus_stats",
    "novelty.build_word_bags", "novelty.novelty_scores", "novelty.cooccurrence", "novelty.score_document",
    "baseline.tfidf_scores", "evaluation.doc_feature_matrix", "evaluation.fit_logistic", "evaluation.roc_pr",
    "files.write",
)
COUNTS = (
    "tsetlin.fired_calls", "tsetlin.type_i_rows", "tsetlin.type_i_literals", "tsetlin.type_ii_rows",
    "tsetlin.extract_calls", "novelty.pairs_counted",
)


def per_layer(rounds: list[dict], model: Path) -> dict:
    """Per-round means over the traced rounds, plus the untraced stage times.

    Empty when no traced or no untraced round has a stage that ran to its end.
    """
    traced = [r for r in rounds if r["trace"] and r["stages"]]
    plain = [r for r in rounds if not r["trace"] and r["stages"]]
    if not traced or not plain:
        return {}
    n = len(traced)
    total: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    for r in traced:
        for stage in r["stages"].values():
            inclusive, own = summarize(stage["trace"]["spans"])
            total.update(inclusive)
            self_time.update(own)
            counts.update(stage["trace"]["counts"])

    metrics: dict[str, tuple[float, str]] = {}
    metrics["tsetlin.fit_self_s"] = (self_time["tsetlin.fit"] / n, "s")
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = (total[name] / n, "s")
    for name in COUNTS:
        metrics[name] = (counts[name] / n, "count")
    metrics["files.written_mb"] = (counts["files.written_bytes"] / n / MIB, "MiB")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for key, value in self_time.items():
        layer_self[key.split(".")[0]] += value
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value / n, "s")
    traced_seconds = sum(_round_seconds(r) for r in traced)
    metrics["tsetlin.self_pct"] = (100.0 * layer_self["tsetlin"] / traced_seconds, "%")

    decoded = checks.decode_model(model)
    nonempty, included = checks.model_make_up(decoded)
    state_bytes = sum(s.nbytes for s in decoded.states.values())
    metrics["tsetlin.state_mb"] = (state_bytes / MIB, "MiB")
    metrics["tsetlin.nonempty_clauses"] = (nonempty, "count")
    metrics["tsetlin.included_literals"] = (included, "count")

    for stage in STAGES:
        seconds = [r["stages"][stage]["seconds"] for r in plain if stage in r["stages"]]
        peaks = [r["stages"][stage]["peak_rss_mb"] for r in plain if stage in r["stages"]]
        metrics[f"cli.{stage}_s"] = (statistics.median(seconds) if seconds else 0.0, "s")
        metrics[f"cli.{stage}.peak_rss_mb"] = (statistics.median(peaks) if peaks else 0.0, "MiB")

    traced_total = statistics.median(_round_seconds(r) for r in traced)
    plain_total = statistics.median(_round_seconds(r) for r in plain)
    metrics["trace.overhead_pct"] = (100.0 * (traced_total / plain_total - 1.0), "%")
    metrics["src.lines"] = (_src_lines(), "count")
    return metrics


def _src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines()) for p in sorted((REPO / "src").rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded tmnovelty benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "src" / "tmnovelty" / "cli.py").is_file():
        print(f"error: tmnovelty sources not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    work = REPO / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times = []
        for _ in range(workload.setup_repeats):
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)

        rounds: list[dict] = []
        start = perf_counter()
        # At least two rounds, so the byte-identical checks compare something.
        while len(rounds) < 2 or perf_counter() - start < args.seconds:
            rounds.append(run_round(workload, False, len(rounds)))
            if args.trace:
                rounds.append(run_round(workload, True, len(rounds)))
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)

        correct = True
        try:
            workload.check()
        except (checks.CheckFailed, OSError, KeyError, ValueError) as err:
            print(f"check failed: {err}", file=sys.stderr)
            correct = False
        model = workload.out / "model.tm"
        metrics = per_layer(rounds, model) if args.trace else end_to_end(setup_times, rounds, model)
        if not metrics:
            print("no stage ran to its end; no metrics", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
