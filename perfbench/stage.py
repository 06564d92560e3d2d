"""Run one measured stage in a process of its own and report it as JSON.

    python3 perfbench/stage.py '<spec as JSON>'

A spec is either ``{"kind": "cli", "argv": [...]}``, one ``tmnovelty`` CLI
stage through ``tmnovelty.cli.main``, or ``{"kind": "train", ...}``, the
paper-shape library call: ``fit`` from the deep initial state, then
``TMModel.save``.  With ``"trace"`` set, spans are recorded around the
layers' public functions and written to ``spans_out`` at the end.  The last
line of standard output is ``{"exit": code, "seconds": s, "peak_rss_mb": m}``,
plus, for ``train``, the accuracy trace, the model file's sha256 and
``check``, which is empty unless the file read back differs from the
in-memory states.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from tmnovelty import BoolDoc, Label, TMModel, TMParams, cli, tsetlin  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's own peak resident set.

    ``ru_maxrss`` is not used: it keeps the high-water mark of the address
    space the process had before ``exec``, which under ``vfork`` is the
    parent's.  ``VmHWM`` belongs to the address space ``exec`` created.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_cli(spec: dict, tracer: Tracer | None) -> tuple[int, float, dict]:
    captured = io.StringIO()
    main = cli.main if tracer is None else tracer.wrap(f"cli.{spec['argv'][0]}", cli.main)
    with contextlib.redirect_stdout(captured):
        start = perf_counter()
        code = main(spec["argv"])
        seconds = perf_counter() - start
    return code, seconds, {}


def run_train(spec: dict, tracer: Tracer | None) -> tuple[int, float, dict]:
    data = np.load(spec["docs"])
    bits, is_novel = data["bits"], data["is_novel"]
    docs = [
        BoolDoc(f"doc{k}", Label.NOVEL if novel else Label.KNOWN, row)
        for k, (row, novel) in enumerate(zip(bits, is_novel))
    ]
    params = TMParams(clause_count=spec["clauses"], vote_margin=50, sensitivity=25.0, seed=spec["seed"])
    model = TMModel.create(params, bits.shape[1], vocab_hash=spec["vocab_hash"])
    out = Path(spec["out"])
    start = perf_counter()
    _, trace = tsetlin.fit(model, docs, epochs=spec["epochs"])
    model.save(out)
    seconds = perf_counter() - start
    peak_mb = _peak_rss_mb()  # before the check below reads the file back
    # The written file must decode, with the benchmark's own reader, to the
    # states the machine holds in memory.
    decoded = checks.decode_model(out)
    differ = [
        label.value
        for label in (Label.KNOWN, Label.NOVEL)
        if not np.array_equal(decoded.states[label.value], model.banks[label].state)
    ]
    extra = {
        "check": f"saved {', '.join(differ)} states differ from the trained states" if differ else "",
        "accuracy_trace": trace,
        "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "peak_rss_mb": peak_mb,
    }
    return 0, seconds, extra


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    runner = run_cli if spec["kind"] == "cli" else run_train
    code, seconds, extra = runner(spec, tracer)
    if tracer is not None:
        tracer.dump(Path(spec["spans_out"]))
    print(json.dumps({"exit": code, "seconds": seconds, "peak_rss_mb": _peak_rss_mb(), **extra}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
